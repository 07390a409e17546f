package repro.perfbench

import java.nio.file.{Files, Paths}
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

import com.fasterxml.jackson.databind.ObjectMapper
import org.scalatest.funsuite.AnyFunSuite

import repro.core.LocalAlgos
import repro.graph.{LocalGraph, SynthBipartite}

/** The benchmark's own checks, on inputs small enough to run in seconds:
  * the correctness gate rejects a wrong reference, traced and untraced runs
  * agree on the counts, and every metric the benchmark promises is reported.
  */
class PerfbenchSpec extends AnyFunSuite {

  private val cfg = SynthBipartite.Config(nU = 24, nL = 60, nE = 1500, spanDays = 120,
    burstFrac = 0.5, burstUsers = 6, burstItems = 4, seed = 5L)
  private val (window, stride, slides) = (300, 30, 12)
  private val seed = References.DefaultSeed
  private val edges = Inputs.edges(cfg, seed)
  private val env = Env(seed, Main.threads)
  private val out = Files.createTempDirectory("perfbench-spec")

  private def tiny(name: String, ref: Reference): Workload = name match {
    case "batch-lf" => new BatchWorkload(name, cfg, ref, env, enumerate = false)
    case "batch-wt" => new BatchWorkload(name, cfg, ref, env, enumerate = true)
    case "stream-lf" => new StreamWorkload(name, cfg, ref, env, window, stride, slides)
    case "spark-tw" => new SparkWorkload(name, cfg, ref, env)
  }

  private def reference(name: String): Reference =
    if (name == "stream-lf") Inputs.streamReference(edges.take(window + slides * stride), window, stride, slides)
    else Inputs.batchReference(edges)

  /** One run of a tiny workload; returns its result and the printed lines. */
  private def run(name: String, trace: Boolean, ref: Reference): (Result, Seq[String]) = {
    val lines = ArrayBuffer.empty[String]
    val heap = new HeapMeter
    try {
      val r = Main.run(tiny(name, ref), Main.Args(name, seed, 1, trace, out), heap, new Tracer, lines += _)
      (r, lines.toSeq)
    } finally heap.close()
  }

  private def tampered(r: Reference): Reference = {
    val c = r.counts.clone(); c(0) += 1
    r.copy(counts = c)
  }

  test("the tiny inputs contain butterflies of every type") {
    val c = reference("batch-lf").counts
    assert(c.forall(_ > 0), c.mkString(","))
    assert(reference("stream-lf").counts.forall(_ > 0))
  }

  test("a wrong reference count fails the gate") {
    for (name <- Seq("batch-lf", "batch-wt", "stream-lf"); trace <- Seq(false, true)) {
      val (r, lines) = run(name, trace, tampered(reference(name)))
      assert(!r.correct, s"$name trace=$trace")
      assert(r.failed >= 1 && r.details("error_rate") > 0.0, s"$name trace=$trace")
      assert(lines.exists(_.startsWith("error ")), s"$name trace=$trace")
    }
    val s = reference("stream-lf")
    val (r, _) = run("stream-lf", trace = false, s.copy(stepSums = s.stepSums.map(_ + 1)))
    assert(!r.correct, "stream-lf: per-window sums are gated too")
  }

  test("traced and untraced runs report the same counts") {
    for (name <- Seq("batch-lf", "batch-wt", "stream-lf")) {
      val ref = reference(name)
      val (plain, _) = run(name, trace = false, ref)
      val (traced, _) = run(name, trace = true, ref)
      assert(plain.correct && traced.correct, s"$name: ${plain.errors ++ traced.errors}")
    }
    val g = LocalGraph.fromEdges(edges)
    val core = CoreReplay.run(g, Inputs.Delta, enumerate = true)
    val counts = LocalAlgos.tbcPlusPlus(g, Inputs.Delta)
    assert(core.counts.sameElements(counts))
    assert(core.enumCounts.sameElements(counts))
    assert(core.enumInstances == LocalAlgos.tbePlus(g, Inputs.Delta, collect = false)._1)
    assert(CoreReplay.run(g, Inputs.Delta, enumerate = true).exact == core.exact, "exact counts repeat")
  }

  test("every metric of the benchmark is reported, with the units BENCHMARK.json gives") {
    val json = new ObjectMapper().readTree(Paths.get("..", "BENCHMARK.json").toFile)
    def listed(key: String) = json.get(key).elements.asScala
      .map(m => m.get("name").asText -> (m.get("unit").asText, m.get("better").asText)).toMap
    val endToEnd = listed("end_to_end")
    val perLayer = listed("per_layer")
    assert(endToEnd == Catalog.endToEnd.map(m => m.name -> (m.unit, m.better)).toMap)
    assert(perLayer == Catalog.perLayer.map(m => m.name -> (m.unit, m.better)).toMap)
    assert(json.get("workloads").elements.asScala.map(_.get("name").asText).toSeq == Workloads.names)

    val printed = ArrayBuffer.empty[String]
    for (name <- Workloads.names; trace <- Seq(false, true)) {
      val (r, lines) = run(name, trace, reference(name))
      assert(r.correct, s"$name trace=$trace: ${r.errors}")
      assert(r.metrics.keySet == (if (trace) perLayer.keySet else endToEnd.keySet), s"$name trace=$trace")
      if (!trace) assert(r.metrics.values.forall(_ > 0.0), s"$name: end-to-end metrics are never 0")
      printed ++= lines.filter(_.startsWith("metric ")).map(_.split(" ")(1))
      Catalog.workloadOnly.filter(_.workloads.contains(name)).foreach { m =>
        assert((r.metrics ++ r.details).contains(m.name) || !trace && m.name.contains('.'), s"$name trace=$trace: ${m.name}")
      }
    }
    val named = Seq(
      "setup_s", "op_s", "alloc_mb", "count_s", "enum_s", "slide_ms_p50", "slide_ms_p90",
      "stream_edges_per_s", "error_rate",
      "graph.build_s", "core.wedges_enumerated", "core.wedges_kept", "core.kept_ratio", "core.groups",
      "core.group_max_wedges", "core.sides", "core.enum_s", "core.sides_s", "core.combine_s", "core.index_s",
      "core.index.inserts", "core.index.delete_calls", "core.index.queries", "core.rounds",
      "core.enum.instances", "core.enum_combine_s", "jvm.gc_s", "jvm.gc_count", "jvm.alloc_bytes_per_wedge",
      "stream.graph_write_s", "stream.count_insert_s", "stream.count_expire_s", "stream.parallel_efficiency",
      "stream.thread_scaling", "stream.alloc_mb_per_slide",
      "sparkdist.wedge_rows", "sparkdist.wedge_join_s", "sparkdist.group_count", "sparkdist.group_max",
      "sparkdist.group_p99", "sparkdist.serial_stage_s", "sparkdist.task_p50_s", "sparkdist.task_max_s",
      "sparkdist.shuffle_write_mb", "sparkdist.shuffle_read_mb", "sparkdist.executor_run_s", "sparkdist.gc_s",
      "trace.overhead_s")
    assert(named.filterNot(printed.contains).isEmpty, "metrics never printed")
    assert(named.toSet == Catalog.byName.keySet, "the catalog lists exactly these metrics")
  }

  test("the committed references hold at the default and the held-out seed") {
    for (s <- Seq(References.DefaultSeed, References.HeldOutSeed); w <- Workloads.names) {
      val got = Inputs.reference(w, s)
      val want = References.byWorkload(w)
      assert(got.counts.sameElements(want.counts) && got.stepSums.sameElements(want.stepSums),
        s"$w seed=$s: ${got.show} vs ${want.show}")
    }
  }
}
