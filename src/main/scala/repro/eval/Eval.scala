package repro.eval

import repro.core.{BenchTimeout, LocalAlgos, Variant}
import repro.graph.{Datasets, LocalGraph, SynthBipartite, TemporalEdge}

/** Shared experiment harness for the evaluation reproduction: dataset
  * materialization, timed algorithm runs with a TLE cap (the analogue of
  * the paper's 100,000 s limit), and table formatting. Both the
  * `spark-submit` entrypoints under `jobs/` and the bench suites under
  * `bench/` drive their experiments through this module.
  */
object Eval {

  final case class Timed[A](value: A, millis: Double)

  def time[A](f: => A): Timed[A] = {
    val t0 = System.nanoTime()
    val v = f
    Timed(v, (System.nanoTime() - t0) / 1e6)
  }

  /** Run a counting algorithm under a wall-clock cap; Left("TLE") past it. */
  def capped(limitMs: Long)(f: Long => Array[Long]): Either[String, Timed[Array[Long]]] = {
    val deadline = System.nanoTime() + limitMs * 1000000L
    try Right(time(f(deadline)))
    catch { case _: BenchTimeout => Left("TLE") }
  }

  def fmtMs(r: Either[String, Timed[_]]): String = r match {
    case Left(s) => s
    case Right(t) => f"${t.millis}%.1f"
  }

  def pct(c: Array[Long]): Array[Double] = {
    val s = c.sum.toDouble
    if (s == 0) Array.fill(6)(0.0) else c.map(_ * 100.0 / s)
  }

  /** Fixed-width table printer. */
  def printTable(header: Seq[String], rows: Seq[Seq[String]], out: String => Unit = println): Unit = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def fmt(r: Seq[String]) =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("  ")
    out(fmt(header))
    out(widths.map("-" * _).mkString("  "))
    rows.foreach(r => out(fmt(r)))
  }

  // ------------------------------------------------------------------
  // dataset materialization (cached per key: several benches share them)
  // ------------------------------------------------------------------

  private val cache = scala.collection.mutable.HashMap.empty[String, IndexedSeq[TemporalEdge]]

  def edgesOf(spec: Datasets.Spec): IndexedSeq[TemporalEdge] =
    cache.getOrElseUpdate(spec.key, SynthBipartite.generate(spec.cfg))

  def graphOf(spec: Datasets.Spec): LocalGraph = LocalGraph.fromEdges(edgesOf(spec))

  // ------------------------------------------------------------------
  // Table 3: dataset summary
  // ------------------------------------------------------------------

  final case class DatasetStats(
      key: String, entities: String,
      e: Long, u: Long, l: Long, spanDays: Double,
      paperE: Long, paperU: Long, paperL: Long, paperSpanDays: Double)

  def datasetStats(spec: Datasets.Spec): DatasetStats = {
    val edges = edgesOf(spec)
    val span = (edges.last.t - edges.head.t) / SynthBipartite.SecondsPerDay.toDouble
    DatasetStats(spec.key, spec.entities,
      edges.length.toLong,
      edges.iterator.map(_.u).distinct.size.toLong,
      edges.iterator.map(_.v).distinct.size.toLong,
      span,
      spec.paperE, spec.paperU, spec.paperL, spec.paperSpanDays)
  }

  /** Table 3 over every catalog dataset, printed; returns its rows. */
  def table3(): Seq[DatasetStats] = {
    val rows = Datasets.all.map(datasetStats)
    println("=== Table 3: The summary of datasets (synthetic, scale ~1/256) ===")
    printTable(
      Seq("Dataset", "|E|", "|U|", "|L|", "Span(d)",
          "paper|E|", "paper|U|", "paper|L|", "paperSpan(d)"),
      rows.map(r => Seq(r.key, r.e.toString, r.u.toString, r.l.toString,
        f"${r.spanDays}%.2f", r.paperE.toString, r.paperU.toString,
        r.paperL.toString, f"${r.paperSpanDays}%.2f")))
    rows
  }

  // ------------------------------------------------------------------
  // Table 4: per-type count distribution at delta = 40 days
  // ------------------------------------------------------------------

  final case class DistRow(key: String, entities: String, counts: Array[Long], pcts: Array[Double])

  def table4Row(spec: Datasets.Spec, delta: Long): DistRow = {
    val c = LocalAlgos.tbcPlusPlus(graphOf(spec), delta)
    DistRow(spec.key, spec.entities, c, pct(c))
  }

  /** Table 4 over every catalog dataset, printed; returns its rows. */
  def table4(delta: Long): Seq[DistRow] = {
    val rows = Datasets.all.map(s => table4Row(s, delta))
    println(s"=== Table 4: The distribution of counts while delta = ${delta / 86400} days ===")
    printTable(
      Seq("Dataset", "Entities", "Total") ++ (0 until 6).map(i => s"T$i"),
      rows.map(r => Seq(r.key, r.entities, r.counts.sum.toString) ++
        r.pcts.map(p => f"$p%.1f%%")))
    rows
  }

  // ------------------------------------------------------------------
  // Figure 11/12-style overall performance (counting + enumeration)
  // ------------------------------------------------------------------

  final case class PerfRow(key: String, results: Seq[(String, Either[String, Timed[Array[Long]]])])

  /** The five algorithms of Figure 11, each run as `(graph, delta, deadline)`. */
  val Algos: Seq[(String, (LocalGraph, Long, Long) => Array[Long])] = Seq(
    "TBC"   -> ((g, d, dl) => LocalAlgos.tbc(g, d, dl)),
    "TBC+"  -> ((g, d, dl) => LocalAlgos.tbcPlus(g, d, dl)),
    "TBC++" -> ((g, d, dl) => LocalAlgos.tbcPlusPlus(g, d, dl)),
    "TBE"   -> ((g, d, dl) => Array(LocalAlgos.tbe(g, d, collect = false, dl)._1)),
    "TBE+"  -> ((g, d, dl) => Array(LocalAlgos.tbePlus(g, d, collect = false, dl)._1)),
  )

  /** Every algorithm of [[Algos]] on `spec`, each under its own TLE cap —
    * hopeless baseline runs can be cut short without capping the
    * heavyweight-but-feasible optimized runs.
    */
  def perfRow(spec: Datasets.Spec, delta: Long, limitMs: String => Long): PerfRow = {
    val g = graphOf(spec)
    PerfRow(spec.key, Algos.map { case (name, run) =>
      name -> capped(limitMs(name))(dl => run(g, delta, dl))
    })
  }

  /** Figure 11-style table over every catalog dataset at delta = 40 days,
    * printed; returns each dataset's row.
    */
  def overallPerf(limitMs: String => Long): Seq[(Datasets.Spec, PerfRow)] = {
    val perf = Datasets.all.map(s => s -> perfRow(s, Datasets.DefaultDeltaSeconds, limitMs))
    println("=== Overall performance (delta = 40 days) ===")
    printTable(
      Seq("Dataset") ++ Algos.map(_._1 + "(ms)") :+ "Total counts",
      perf.map { case (spec, row) =>
        val total = row.results.collectFirst {
          case ("TBC++", Right(t)) => t.value.sum.toString
        }.getOrElse("?")
        Seq(spec.key) ++ row.results.map { case (_, res) => fmtMs(res) } :+ total
      })
    perf
  }

  /** Figure 13/16-style sweep of delta on dataset `key`: every algorithm's
    * time and the per-type counts, printed; returns
    * `(deltaDays, times, counts)` per delta.
    */
  def deltaSweep(key: String, limitMs: Long): Seq[(Long, PerfRow, DistRow)] = {
    val spec = Datasets.byKey(key)
    val sweep = Seq(10L, 20L, 40L, 80L, 160L).map { d =>
      val delta = d * 86400L
      (d, perfRow(spec, delta, _ => limitMs), table4Row(spec, delta))
    }
    println(s"=== Varying delta on $key (TLE = ${limitMs / 1000}s) ===")
    printTable(
      Seq("delta") ++ Algos.map(_._1 + "(ms)") ++ Seq("Total") ++ (0 until 6).map(i => s"T$i"),
      sweep.map { case (d, row, dist) =>
        Seq(s"${d}d") ++ row.results.map { case (_, r) => fmtMs(r) } ++
          Seq(dist.counts.sum.toString) ++ dist.pcts.map(p => f"$p%.0f%%")
      })
    sweep
  }

  /** Scalability: run on a random fraction of edges (averaged over reps). */
  def scalabilityPoint(edges: IndexedSeq[TemporalEdge], fraction: Double, delta: Long,
                       limitMs: Long, variant: Variant, reps: Int, seed: Long): Either[String, Double] = {
    var total = 0.0
    var rep = 0
    while (rep < reps) {
      val rnd = new scala.util.Random(seed + rep)
      val sub = if (fraction >= 1.0) edges else edges.filter(_ => rnd.nextDouble() < fraction)
      val g = LocalGraph.fromEdges(sub)
      capped(limitMs)(dl => LocalAlgos.count(g, delta, variant, dl)) match {
        case Left(s) => return Left(s)
        case Right(t) => total += t.millis
      }
      rep += 1
    }
    Right(total / reps)
  }

  val ScalabilityFractions: Seq[Double] = Seq(0.2, 0.4, 0.6, 0.8, 1.0)

  /** Figure 15-style scalability table of dataset `key`: for every edge
    * fraction, each counting variant's mean time (or TLE) at delta = 40 days,
    * printed. Returns the cells keyed by fraction and variant name.
    */
  def scalabilityTable(key: String, limitMs: Long, reps: Int,
                       seed: Long): Seq[(Double, Seq[(String, Either[String, Double])])] = {
    val edges = edgesOf(Datasets.byKey(key))
    val table = ScalabilityFractions.map { f =>
      f -> Variant.all.map { v =>
        v.name -> scalabilityPoint(edges, f, Datasets.DefaultDeltaSeconds, limitMs, v, reps, seed)
      }
    }
    println(s"=== Scalability on $key (TLE = ${limitMs / 1000}s, $reps reps) ===")
    printTable(
      Seq("|E| frac", "TBC(ms)", "TBC+(ms)", "TBC++(ms)"),
      table.map { case (f, cells) =>
        Seq(f"${(f * 100).toInt}%%") ++ cells.map {
          case (_, Left(s)) => s
          case (_, Right(ms)) => f"$ms%.1f"
        }
      })
    table
  }
}
