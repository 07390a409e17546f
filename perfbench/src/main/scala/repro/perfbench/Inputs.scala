package repro.perfbench

import scala.util.Random

import repro.core.LocalAlgos
import repro.graph.{Datasets, LocalGraph, SynthBipartite, TemporalEdge}

/** The benchmark's inputs.
  *
  * Each workload runs one catalog dataset ([[Datasets]]), generated by
  * [[SynthBipartite]] from the catalog's own seed. The workload seed then
  * relabels the vertices of each layer with a random permutation and shifts
  * every timestamp by one random offset. That changes everything the program
  * sees (vertex ids, the priority tie-breaks among equal-degree vertices,
  * hash layouts, timestamp values) but yields an isomorphic graph, so every
  * seed does the same amount of work and has the same per-type counts. The
  * committed references therefore gate every seed, and run-to-run spread
  * measures the program and the machine rather than the generator.
  */
object Inputs {

  val Delta: Long = Datasets.DefaultDeltaSeconds

  def edges(cfg: SynthBipartite.Config, seed: Long): IndexedSeq[TemporalEdge] = {
    val rnd = new Random(seed)
    val upper = rnd.shuffle((0 until cfg.nU).toVector).toArray
    val lower = rnd.shuffle((0 until cfg.nL).toVector).toArray
    val shift = rnd.nextInt(1 << 30).toLong
    SynthBipartite.generate(cfg).map(e => TemporalEdge(upper(e.u.toInt), lower(e.v.toInt), e.t + shift))
  }

  def config(key: String): SynthBipartite.Config = Datasets.byKey(key).cfg

  /** Sliding-window settings of `stream-lf`: |W| = 2000 edges, stride 100
    * (5%), and the stream cut to the first window plus `Slides` strides.
    */
  val Window = 2000
  val Stride = 100
  val Slides = 100

  /** Reference counts computed with TBC+ (the `HPIndex` kernel), which no
    * timed op runs.
    */
  def reference(workload: String, seed: Long): Reference = workload match {
    case "batch-lf" => batchReference(edges(config("LF"), seed))
    case "batch-wt" => batchReference(edges(config("WT"), seed))
    case "spark-tw" => batchReference(edges(config("TW"), seed))
    case "stream-lf" => streamReference(edges(config("LF"), seed), Window, Stride, Slides)
  }

  def batchReference(es: IndexedSeq[TemporalEdge]): Reference = Reference(tbcPlus(es))

  /** Counts of the last window, and per-type sums over all windows. */
  def streamReference(es: IndexedSeq[TemporalEdge], window: Int, stride: Int, slides: Int): Reference = {
    val windows = (0 to slides).map(k => tbcPlus(es.slice(k * stride, k * stride + window)))
    Reference(windows.last, windows.transpose.map(_.sum).toArray)
  }

  private def tbcPlus(es: IndexedSeq[TemporalEdge]): Array[Long] =
    LocalAlgos.tbcPlus(LocalGraph.fromEdges(es), Delta)
}

/** Expected per-type counts of one workload. `stepSums` (streams only) is
  * the per-type sum over every window the stream passes through.
  */
final case class Reference(counts: Array[Long], stepSums: Array[Long] = Array.emptyLongArray) {
  def show: String = counts.mkString("[", ",", "]") +
    (if (stepSums.isEmpty) "" else stepSums.mkString(" steps [", ",", "]"))
}

/** Committed reference counts (δ = 40 days). They hold for every seed: see
  * [[Inputs]]. `Inputs.reference` recomputes them; the benchmark's tests
  * check both agree at the default seed and at a held-out one.
  */
object References {
  val DefaultSeed = 1L
  val HeldOutSeed = 2L

  val byWorkload: Map[String, Reference] = Map(
    "batch-lf" -> Reference(Array(62995841L, 48603985L, 52483128L, 63314647L, 47490694L, 51176001L)),
    "batch-wt" -> Reference(Array(1900123L, 1244914L, 1384896L, 1918938L, 1206669L, 1334354L)),
    "stream-lf" -> Reference(Array(972739L, 778365L, 818599L, 979422L, 773324L, 806018L),
      Array(112732141L, 82622598L, 89056282L, 113568525L, 81012167L, 87015850L)),
    "spark-tw" -> Reference(Array(45013L, 38260L, 40605L, 45533L, 34983L, 36102L)),
  )
}
