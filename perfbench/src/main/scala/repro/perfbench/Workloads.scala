package repro.perfbench

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core.LocalAlgos
import repro.graph.{LocalGraph, SynthBipartite, TemporalEdge}
import repro.sparkdist.SparkButterfly
import repro.stream.SlidingWindow

/** A count that differs from its reference, or a replay that differs from
  * the entry point it mirrors.
  */
final class Mismatch(msg: String) extends RuntimeException(msg)

object Check {
  def counts(label: String, expected: Array[Long], got: Array[Long]): Unit =
    if (!expected.sameElements(got))
      throw new Mismatch(s"$label: expected ${expected.mkString("[", ",", "]")} got ${got.mkString("[", ",", "]")}")

  def equal(label: String, expected: Long, got: Long): Unit =
    if (expected != got) throw new Mismatch(s"$label: expected $expected got $got")
}

/** Run-wide settings: the workload seed and the worker threads ([[Main.threads]]). */
final case class Env(seed: Long, threads: Int)

/** Metrics of one traced pass, and the exact counts that must repeat across passes. */
final case class Pass(metrics: Map[String, Double], exact: Seq[Long])

/** One benchmark workload: a closed loop of ops from one driver thread. */
abstract class Workload {
  def name: String

  /** Builds the inputs and whatever state the ops need; timed as `setup_s`. */
  def setup(): Unit

  /** One op; throws [[Mismatch]] when a count is wrong. */
  def op(): Unit

  /** Runs ops until the JIT (and for Spark, code generation) has settled. */
  def warmUp(timedOp: () => Double): Unit = timedOp()

  /** Workload-specific figures of the ops run since the last [[resetDetails]]. */
  def details(): Map[String, Double] = Map.empty
  def resetDetails(): Unit = ()

  /** Checks made once per run, outside timing. */
  def finalCheck(): Unit = ()

  /** One untraced op, then a traced replay of the same work. */
  def tracePass(tracer: Tracer, heap: HeapMeter): Pass

  def close(): Unit = ()
}

object Workloads {
  val names: Seq[String] = Seq("batch-lf", "batch-wt", "stream-lf", "spark-tw")

  def apply(name: String, env: Env, ref: Reference): Workload = name match {
    case "batch-lf" => new BatchWorkload(name, Inputs.config("LF"), ref, env, enumerate = false)
    case "batch-wt" => new BatchWorkload(name, Inputs.config("WT"), ref, env, enumerate = true)
    case "stream-lf" => new StreamWorkload(name, Inputs.config("LF"), ref, env,
                                           Inputs.Window, Inputs.Stride, Inputs.Slides)
    case "spark-tw" => new SparkWorkload(name, Inputs.config("TW"), ref, env)
    case other => throw new IllegalArgumentException(s"unknown workload $other")
  }

  /** Per-layer metrics of one replay of the `core` layer. */
  def coreMetrics(c: CoreCounters): Map[String, Double] = Map(
    "core.enum_s" -> (c.totalNs - c.sidesNs - c.combineNs) / 1e9,
    "core.sides_s" -> c.sidesNs / 1e9,
    "core.combine_s" -> (c.combineNs - c.indexNs) / 1e9,
    "core.index_s" -> c.indexNs / 1e9,
    "core.wedges_enumerated" -> c.wedgesEnumerated.toDouble,
    "core.wedges_kept" -> c.wedgesKept.toDouble,
    "core.kept_ratio" -> (if (c.wedgesEnumerated == 0) 0.0 else c.wedgesKept.toDouble / c.wedgesEnumerated),
    "core.groups" -> c.groups.toDouble,
    "core.group_max_wedges" -> c.groupMax.toDouble,
    "core.sides" -> c.sides.toDouble,
    "core.index.inserts" -> c.inserts.toDouble,
    "core.index.delete_calls" -> c.deleteCalls.toDouble,
    "core.index.queries" -> c.queries.toDouble,
    "core.rounds" -> c.deleteCalls / 4.0,
  )

  def jvmMetrics(s: Seq[Sample]): Map[String, Double] =
    Map("jvm.gc_s" -> s.map(_.gcSeconds).sum, "jvm.gc_count" -> s.map(_.gcCount).sum.toDouble)

  def timed[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1e9)
  }
}

import Workloads.{coreMetrics, jvmMetrics, timed}

/** `batch-lf` / `batch-wt`: `LocalGraph.fromEdges` + `LocalAlgos.tbcPlusPlus`,
  * and with `enumerate` also `LocalAlgos.tbePlus(collect = false)`.
  */
final class BatchWorkload(val name: String, cfg: SynthBipartite.Config, ref: Reference,
                          env: Env, enumerate: Boolean) extends Workload {

  private var edges: IndexedSeq[TemporalEdge] = _
  private val countS = ArrayBuffer.empty[Double]
  private val enumS = ArrayBuffer.empty[Double]

  def setup(): Unit = edges = Inputs.edges(cfg, env.seed)

  private def count(): (LocalGraph, Array[Long]) = {
    val g = LocalGraph.fromEdges(edges)
    val c = LocalAlgos.tbcPlusPlus(g, Inputs.Delta)
    Check.counts(s"$name TBC++", ref.counts, c)
    (g, c)
  }

  private def enumerateAll(g: LocalGraph): Long = {
    val n = LocalAlgos.tbePlus(g, Inputs.Delta, collect = false)._1
    Check.equal(s"$name TBE+ instances", ref.counts.sum, n)
    n
  }

  def op(): Unit = {
    val ((g, _), cs) = timed(count())
    countS += cs
    if (enumerate) enumS += timed(enumerateAll(g))._2
  }

  override def details(): Map[String, Double] =
    Map("count_s" -> Stats.median(countS.toSeq)) ++
      (if (enumerate) Map("enum_s" -> Stats.median(enumS.toSeq)) else Map.empty)
  override def resetDetails(): Unit = { countS.clear(); enumS.clear() }

  def tracePass(tracer: Tracer, heap: HeapMeter): Pass = {
    val ((g, counts), cs) = Sample.measure(heap)(count())
    val (instances, es) =
      if (enumerate) { val (n, s) = Sample.measure(heap)(enumerateAll(g)); (n, Some(s)) } else (0L, None)

    val ((g2, buildS, core), tracedS) = timed {
      val (g2, buildS) = timed(tracer.span("graph.build")(LocalGraph.fromEdges(edges)))
      (g2, buildS, tracer.span("core.replay")(CoreReplay.run(g2, Inputs.Delta, enumerate)))
    }
    Check.counts(s"$name core replay vs LocalAlgos.tbcPlusPlus", counts, core.counts)
    if (enumerate) {
      Check.equal(s"$name enumeration replay vs LocalAlgos.tbePlus", instances, core.enumInstances)
      Check.counts(s"$name enumeration replay per type vs TBC++", counts, core.enumCounts)
    }
    val untracedS = cs.seconds + es.map(_.seconds).getOrElse(0.0)
    val m = coreMetrics(core) ++ jvmMetrics(cs +: es.toSeq) ++ Map(
      "count_s" -> cs.seconds,
      "graph.build_s" -> buildS,
      "trace.overhead_s" -> (tracedS - untracedS),
      "jvm.alloc_bytes_per_wedge" -> cs.heapBytes.toDouble / math.max(1L, core.wedgesKept),
    ) ++ es.map(s => Map(
      "enum_s" -> s.seconds,
      "core.enum.instances" -> core.enumInstances.toDouble,
      "core.enum_combine_s" -> core.enumCombineNs / 1e9,
    )).getOrElse(Map.empty)
    Pass(m, core.exact ++ Seq(g2.n.toLong))
  }
}

/** `stream-lf`: `SlidingWindow.run` with STBC+ on `env.threads` threads over
  * the first window plus `slides` strides of the dataset's edge stream.
  */
final class StreamWorkload(val name: String, cfg: SynthBipartite.Config, ref: Reference, env: Env,
                           window: Int, stride: Int, slides: Int) extends Workload {

  import StreamWorkload.Run

  private var edges: IndexedSeq[TemporalEdge] = _
  private val slideS = ArrayBuffer.empty[Double]

  def setup(): Unit = {
    edges = Inputs.edges(cfg, env.seed).take(window + slides * stride)
    // the first window fill: SlidingWindow.run up to its first onStep
    SlidingWindow.run(edges.take(window), window, stride, Inputs.Delta, env.threads)
  }

  private def run(threads: Int): Run = {
    val steps = ArrayBuffer.empty[Array[Long]]
    val stamps = ArrayBuffer.empty[Long]
    var bytes0 = 0L
    val last = SlidingWindow.run(edges, window, stride, Inputs.Delta, threads, onStep = { s =>
      stamps += System.nanoTime()
      if (steps.isEmpty) bytes0 = ThreadAlloc.current()
      steps += s.counts
    })
    val bytes = ThreadAlloc.current() - bytes0
    Check.equal(s"$name steps", slides + 1, steps.length)
    Check.counts(s"$name last window", ref.counts, last)
    Check.counts(s"$name per-type sums over all windows", ref.stepSums,
      steps.transpose.map(_.sum).toArray)
    Run(steps.toIndexedSeq, stamps.sliding(2).map(p => (p(1) - p(0)) / 1e9).toSeq, bytes)
  }

  def op(): Unit = slideS ++= run(env.threads).slideS

  private def slideDetails(s: Seq[Double]): Map[String, Double] = Map(
    "slide_ms_p50" -> Stats.median(s) * 1e3,
    "slide_ms_p90" -> Stats.percentile(s, 0.9) * 1e3,
    "stream_edges_per_s" -> 2.0 * stride * s.length / s.sum,
  )

  override def details(): Map[String, Double] = slideDetails(slideS.toSeq)
  override def resetDetails(): Unit = slideS.clear()

  private def lastWindow: IndexedSeq[TemporalEdge] = edges.takeRight(window)

  /** Recounts the last window from scratch with TBC++. */
  override def finalCheck(): Unit =
    Check.counts(s"$name last window recounted by LocalAlgos.tbcPlusPlus", ref.counts,
      LocalAlgos.tbcPlusPlus(LocalGraph.fromEdges(lastWindow), Inputs.Delta))

  def tracePass(tracer: Tracer, heap: HeapMeter): Pass = {
    val (par, ps) = Sample.measure(heap)(run(env.threads))
    val (one, os) = Sample.measure(heap)(run(1))
    val sc = new StreamCounters
    val (replay, replayS) = timed(tracer.span("stream.replay")(
      StreamReplay.run(edges, window, stride, Inputs.Delta, sc)))
    par.steps.indices.foreach { i =>
      Check.counts(s"$name STBC+-1 at step $i vs STBC+-${env.threads}", par.steps(i), one.steps(i))
      Check.counts(s"$name stream replay at step $i vs SlidingWindow.run", par.steps(i), replay(i))
    }
    // the last window through the core layer, as the recount of finalCheck does it
    val (g, buildS) = timed(tracer.span("graph.build")(LocalGraph.fromEdges(lastWindow)))
    val core = tracer.span("core.replay")(CoreReplay.run(g, Inputs.Delta, enumerate = false))
    Check.counts(s"$name core replay of the last window", par.steps.last, core.counts)

    val busy = (sc.insertCountNs + sc.expireCountNs) / 1e9
    val m = coreMetrics(core) ++ jvmMetrics(Seq(ps)) ++ slideDetails(par.slideS) ++ Map(
      "count_s" -> ps.seconds,
      "graph.build_s" -> buildS,
      "trace.overhead_s" -> (replayS - os.seconds),
      "stream.graph_write_s" -> sc.writeNs / 1e9,
      "stream.count_insert_s" -> sc.insertCountNs / 1e9,
      "stream.count_expire_s" -> sc.expireCountNs / 1e9,
      "stream.parallel_efficiency" -> busy / (env.threads * par.slideS.sum),
      "stream.thread_scaling" -> one.slideS.sum / par.slideS.sum,
      "stream.alloc_mb_per_slide" -> one.slideBytes / 1e6 / sc.slides,
    )
    Pass(m, core.exact ++ Seq(sc.slides.toLong))
  }
}

object StreamWorkload {
  /** Counts after every step, slide times, and calling-thread bytes over the slides. */
  private final case class Run(steps: IndexedSeq[Array[Long]], slideS: Seq[Double], slideBytes: Long)
}

/** `spark-tw`: `SparkButterfly.count(df, δ)` with its default variant, on a
  * cached input DataFrame in a pinned local session.
  */
final class SparkWorkload(val name: String, cfg: SynthBipartite.Config, ref: Reference, env: Env)
    extends Workload {

  private var edges: IndexedSeq[TemporalEdge] = _
  private var spark: SparkSession = _
  private var df: DataFrame = _
  private val countS = ArrayBuffer.empty[Double]

  /** Session start is part of set-up, so a repeated set-up restarts it. */
  def setup(): Unit = {
    close()
    edges = Inputs.edges(cfg, env.seed)
    spark = SparkSetup.session(env.threads)
    df = SparkButterfly.edgesToDF(spark, edges).cache()
    df.count()
  }

  private def count(): Array[Long] = {
    val c = SparkButterfly.count(df, Inputs.Delta)
    Check.counts(s"$name SparkButterfly.count", ref.counts, c)
    c
  }

  def op(): Unit = countS += timed(count())._2

  /** Counts until two in a row agree within 10% (at least 4, at most 8):
    * whole-stage code generation and the JIT take several counts to settle.
    */
  override def warmUp(timedOp: () => Double): Unit = {
    val t = ArrayBuffer.fill(4)(timedOp())
    while (t.length < 8 && math.abs(t.last - t(t.length - 2)) > 0.1 * t.last) t += timedOp()
  }

  override def details(): Map[String, Double] = Map("count_s" -> Stats.median(countS.toSeq))
  override def resetDetails(): Unit = countS.clear()

  def tracePass(tracer: Tracer, heap: HeapMeter): Pass = {
    val (counts, s) = Sample.measure(heap)(count())
    val stats = new SparkStats
    spark.sparkContext.addSparkListener(stats)
    val ((_, taskMetrics), tracedS) = try timed(tracer.span("sparkdist.count")(stats.record(spark, "count")(count())))
      finally spark.sparkContext.removeSparkListener(stats)

    val wedges = SparkButterfly.wedges(df, Inputs.Delta, prune = true)
    val (rows, joinS) = timed(tracer.span("sparkdist.wedge_join")(wedges.count()))
    val all = tracer.span("sparkdist.wedge_join_unpruned")(
      SparkButterfly.wedges(df, Inputs.Delta, prune = false).count())
    val sizes = tracer.span("sparkdist.groups") {
      val sp = spark; import sp.implicits._
      wedges.groupBy($"a", $"w").count().select($"count").as[Long].collect().sorted
    }

    // flatMapGroups' combine, replayed on the driver over the same groups
    val collected = tracer.span("sparkdist.collect")(wedges.collect())
    val core = new CoreCounters
    tracer.span("core.replay") {
      val t0 = System.nanoTime()
      val groups = mutable.LinkedHashMap.empty[(Long, Long), CoreReplay.Group]
      collected.sortBy(r => (r.a, r.w, r.m, r.t1, r.t2)).foreach { r =>
        groups.getOrElseUpdate((r.a, r.w), new ArrayBuffer) += ((r.m, r.t1, r.t2))
      }
      groups.foreach { case ((a, _), ws) => CoreReplay.countGroup(ws, (a & 1L).toInt, Inputs.Delta, core) }
      core.totalNs = System.nanoTime() - t0
    }
    core.wedgesEnumerated = all
    core.wedgesKept = collected.length
    Check.counts(s"$name core replay of the Spark groups vs SparkButterfly.count", counts, core.counts)
    Check.equal(s"$name wedge rows", rows, collected.length.toLong)

    // a second kernel on the same input: TBC+ over the local graph
    val (g, buildS) = timed(tracer.span("graph.build")(LocalGraph.fromEdges(edges)))
    Check.counts(s"$name LocalAlgos.tbcPlus vs SparkButterfly.count", counts,
      tracer.span("core.tbc_plus")(LocalAlgos.tbcPlus(g, Inputs.Delta)))

    val m = coreMetrics(core) ++ jvmMetrics(Seq(s)) ++ taskMetrics ++ Map(
      "count_s" -> s.seconds,
      "graph.build_s" -> buildS,
      "trace.overhead_s" -> (tracedS - s.seconds),
      "sparkdist.wedge_rows" -> rows.toDouble,
      "sparkdist.wedge_join_s" -> joinS,
      "sparkdist.group_count" -> sizes.length.toDouble,
      "sparkdist.group_max" -> sizes.last.toDouble,
      "sparkdist.group_p99" -> Stats.percentile(sizes.map(_.toDouble).toSeq, 0.99),
    )
    Pass(m, core.exact ++ Seq(rows, all, sizes.length.toLong, sizes.last))
  }

  override def close(): Unit = if (spark != null) {
    spark.stop()
    spark = null
  }
}
