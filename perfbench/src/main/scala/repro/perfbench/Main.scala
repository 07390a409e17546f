package repro.perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

/** Outcome of one benchmark run. `metrics` holds what the last output line
  * reports; `details` the workload-specific figures printed beside them.
  */
final case class Result(correct: Boolean, attempted: Int, failed: Int,
                        metrics: Map[String, Double], details: Map[String, Double], errors: Seq[String])

/** Benchmark entry point.
  *
  * {{{
  *   Main --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
  * }}}
  *
  * Untraced runs (`--trace 0`) time closed-loop ops for `--seconds` after a
  * warm-up and report the end-to-end metrics. Traced runs (`--trace 1`)
  * alternate one untraced op with a traced replay of the same work and
  * report the per-layer metrics. Every op's per-type counts are checked;
  * the last line of standard output is the JSON result. A result file with
  * the run's environment and every figure, and for traced runs the spans,
  * go under `--out` (default `.bench_build/perfbench`).
  */
object Main {

  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean, out: Path)

  /** Set-ups per run; the median is `setup_s`. A Spark set-up starts a
    * session, and only the first start in a JVM loads Spark's classes.
    */
  val SetupRepeats = 5

  def parse(args: Array[String]): Args = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments near ${other.mkString(" ")}")
    }.toMap
    def get(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val a = Args(get("workload"), get("seed").toLong, get("seconds").toInt,
      get("trace") match {
        case "0" => false
        case "1" => true
        case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
      },
      Paths.get(kv.getOrElse("out", ".bench_build/perfbench")).toAbsolutePath)
    require(Workloads.names.contains(a.workload), s"unknown workload ${a.workload}; one of ${Workloads.names.mkString(", ")}")
    require(a.seconds >= 1, "--seconds must be at least 1")
    a
  }

  /** Worker threads of the multi-threaded workloads: one core is left to the
    * driver thread, the collector and the JIT. With every core busy, a
    * single preempted worker holds up each STBC+ batch and Spark stage, and
    * op times on a shared 4-vCPU host spread twice as wide as with one core
    * spare. At most 4, so that larger machines run the same workloads.
    */
  def threads: Int = math.max(1, math.min(4, Runtime.getRuntime.availableProcessors - 1))

  def main(args: Array[String]): Unit = {
    val a = parse(args)
    val env = Env(a.seed, threads)
    val w = Workloads(a.workload, env, References.byWorkload(a.workload))
    val heap = new HeapMeter
    val tracer = new Tracer
    val r = run(w, a, heap, tracer, println)
    val info = Seq(
      "workload" -> s""""${a.workload}"""", "seed" -> a.seed.toString, "trace" -> (if (a.trace) "1" else "0"),
      "seconds" -> a.seconds.toString, "cores" -> Runtime.getRuntime.availableProcessors.toString,
      "threads" -> threads.toString, "jvm" -> s""""${System.getProperty("java.vm.version")}"""")
    val header = info.map { case (k, v) => s""""$k":$v""" }.mkString(",")
    val stem = s"${a.workload}-seed${a.seed}-trace${if (a.trace) 1 else 0}"
    write(a.out.resolve("results").resolve(s"$stem.json"),
      s"{$header,${resultFields(r, withDetails = true)}}\n")
    if (a.trace) tracer.write(a.out.resolve("traces").resolve(s"$stem.json"), header)
    println(s"{${resultFields(r, withDetails = false)}}")
    System.out.flush()
    sys.exit(if (r.correct) 0 else 1)
  }

  /** Runs workload `w` as `a` asks; `say` gets one line per op and metric. */
  def run(w: Workload, a: Args, heap: HeapMeter, tracer: Tracer, say: String => Unit): Result = {
    say(s"perfbench workload=${a.workload} seed=${a.seed} trace=${if (a.trace) 1 else 0} " +
      s"seconds=${a.seconds} cores=${Runtime.getRuntime.availableProcessors} threads=$threads " +
      s"jvm=${System.getProperty("java.vm.version")}")
    var attempted = 0
    val errors = ArrayBuffer.empty[String]
    def fail(label: String, e: Throwable): Unit = {
      errors += s"$label: $e"
      say(s"error $label: $e")
    }
    def attempt(label: String)(f: => Unit): Boolean = {
      attempted += 1
      try { f; true }
      catch { case NonFatal(e) => fail(label, e); false }
    }
    def healthy = errors.isEmpty

    val metrics = mutable.LinkedHashMap.empty[String, Double]
    var details = Map.empty[String, Double]
    try {
      val setupS = (0 until SetupRepeats).map(_ => Workloads.timed(w.setup())._2)
      say(f"setup ${setupS.map(s => f"$s%.3f").mkString(" ")} s")
      w.warmUp { () =>
        val (_, s) = Workloads.timed(attempt("warm-up op")(w.op()))
        say(f"warm-up op $s%.3f s")
        s
      }
      w.resetDetails()
      val deadline = System.nanoTime() + a.seconds * 1000000000L
      if (!a.trace) {
        val samples = ArrayBuffer.empty[Sample]
        while (healthy && (samples.isEmpty || System.nanoTime() < deadline)) {
          val (ok, s) = Sample.measure(heap)(attempt("op")(w.op()))
          if (ok) samples += s
          say(f"op ${samples.length} ${s.seconds}%.4f s ${s.heapBytes / 1e6}%.1f MB ${if (ok) "ok" else "FAILED"}")
        }
        if (healthy) {
          attempt("final check")(w.finalCheck())
          metrics("setup_s") = Stats.median(setupS)
          metrics("op_s") = Stats.median(samples.map(_.seconds).toSeq)
          metrics("alloc_mb") = Stats.median(samples.map(_.heapBytes / 1e6).toSeq)
          details = w.details()
        }
      } else {
        val passes = ArrayBuffer.empty[Pass]
        while (healthy && (passes.isEmpty || System.nanoTime() < deadline)) {
          attempt("traced pass")(passes += tracer.span("pass")(w.tracePass(tracer, heap)))
          say(s"traced pass ${passes.length} ${if (healthy) "ok" else "FAILED"}")
        }
        if (healthy) {
          attempt("exact counts repeat across passes") {
            if (passes.map(_.exact).distinct.size != 1)
              throw new Mismatch(s"exact counts differ between passes: ${passes.map(_.exact).distinct}")
          }
          val names = passes.head.metrics.keySet
          val all = names.iterator.map(n => n -> Stats.median(passes.map(_.metrics(n)).toSeq)).toMap
          Catalog.perLayer.foreach(x => metrics(x.name) = all(x.name))
          details = all -- metrics.keySet
        }
      }
    } catch {
      case NonFatal(e) => attempted += 1; fail("set-up", e)
    } finally w.close()

    val failed = errors.length
    details += "error_rate" -> failed.toDouble / math.max(1, attempted)
    (metrics.iterator ++ details.toSeq.sortBy(_._1)).foreach { case (n, v) =>
      say(s"metric $n ${num(v)} ${Catalog.byName.get(n).map(_.unit).getOrElse("")}")
    }
    Result(healthy && attempted > 0, attempted, failed, metrics.toMap, details, errors.toSeq)
  }

  /** Full precision; whole numbers (the exact counts) without an exponent. */
  private def num(v: Double): String =
    if (v.isNaN || v.isInfinite) "null"
    else if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString
    else v.toString

  private def resultFields(r: Result, withDetails: Boolean): String = {
    def obj(m: Iterable[(String, Double)]) = m.map { case (n, v) =>
      val unit = Catalog.byName.get(n).map(_.unit).getOrElse("")
      s""""$n":{"value":${num(v)},"unit":"$unit"}"""
    }.mkString("{", ",", "}")
    val ordered = (Catalog.endToEnd ++ Catalog.perLayer).flatMap(x => r.metrics.get(x.name).map(x.name -> _))
    val base = s""""correct":${r.correct},"attempted":${r.attempted},"failed":${r.failed},"metrics":${obj(ordered)}"""
    if (!withDetails) base
    else base + s""","details":${obj(r.details.toSeq.sortBy(_._1))},"errors":""" +
      r.errors.map(e => "\"" + e.replace("\\", "\\\\").replace("\"", "\\\"").replace("\n", " ") + "\"").mkString("[", ",", "]")
  }

  private def write(path: Path, text: String): Unit = {
    Files.createDirectories(path.getParent)
    Files.write(path, text.getBytes(StandardCharsets.UTF_8))
  }
}
