package repro.perfbench

/** A reported metric: its unit, which direction is better, the workloads
  * that measure it, and which end-to-end figure it should move, where.
  */
final case class Metric(name: String, unit: String, better: String, workloads: Seq[String], moves: String)

/** Every metric the benchmark reports. `endToEnd` and `perLayer` are the
  * lists in BENCHMARK.json: every run reports all of them, measured on its
  * own workload. `workloadOnly` metrics exist only where their layer runs;
  * they are printed and written to the result file, not to the last line.
  *
  * Where a workload's op does not build a graph or run the core layer, the
  * traced run measures the nearest real use: on stream-lf, `graph.*` and
  * `core.*` describe the from-scratch recount of the last window; on
  * spark-tw, `core.*` replays the Spark (start, end) groups on the driver
  * and `graph.build_s` is the local graph of the TBC+ cross-check.
  */
object Catalog {

  private val All = Workloads.names
  private val Batch = Seq("batch-lf", "batch-wt")

  private def m(name: String, unit: String, moves: String, ws: Seq[String] = All, better: String = "lower") =
    Metric(name, unit, better, ws, moves)

  val endToEnd: Seq[Metric] = Seq(
    m("setup_s", "s", "Input generation; spark-tw adds session start and the DataFrame cache, " +
      "stream-lf the first window fill. Median of several set-ups per run."),
    m("op_s", "s", "Median wall time of one closed-loop op: build + TBC++ (batch-lf), build + TBC++ + " +
      "TBE+ (batch-wt), the first window + 100 slides (stream-lf), SparkButterfly.count (spark-tw)."),
    m("alloc_mb", "MB", "Median heap bytes allocated per op by all threads."),
  )

  val perLayer: Seq[Metric] = Seq(
    m("count_s", "s", "Time to the 6 per-type counts; on batch-wt the op without TBE+."),
    m("graph.build_s", "s", "LocalGraph.fromEdges; should move op_s on batch-wt, ~0 elsewhere."),
    m("core.enum_s", "s", "Wedge enumeration and grouping; should move op_s and alloc_mb on batch-wt."),
    m("core.sides_s", "s", "LocalCombine.buildSides; should move op_s and alloc_mb on batch-wt."),
    m("core.combine_s", "s", "SetCross.recurCount self time; should move op_s on batch-lf and spark-tw."),
    m("core.index_s", "s", "Time inside WedgeIndex ops, two timer reads per op included; " +
      "should move op_s on batch-lf and spark-tw."),
    m("core.wedges_enumerated", "count", "Priority-valid wedges (exact)."),
    m("core.wedges_kept", "count", "Lemma-1 survivors (exact)."),
    m("core.kept_ratio", "fraction", "wedges_kept / wedges_enumerated (exact).", better = "higher"),
    m("core.groups", "count", "Non-empty (start, end) groups (exact)."),
    m("core.group_max_wedges", "count", "Wedges in the largest group (exact)."),
    m("core.sides", "count", "Per-middle-vertex wedge sets (exact)."),
    m("core.index.inserts", "count", "WedgeIndex.insert calls; should move op_s on batch-lf."),
    m("core.index.delete_calls", "count", "WedgeIndex.deleteAbove calls; should move op_s on batch-lf."),
    m("core.index.queries", "count", "WedgeIndex.countCases calls; should move op_s on batch-lf."),
    m("core.rounds", "count", "SetCross rounds = delete_calls / 4; should move op_s on batch-lf."),
    m("jvm.gc_count", "count", "Collections per op; should move alloc_mb and op_s on batch-wt and batch-lf."),
    m("trace.overhead_s", "s", "Traced replay time minus the untraced time of the same work."),
  )

  val workloadOnly: Seq[Metric] = Seq(
    m("error_rate", "fraction", "Failed ops / attempted ops; must stay 0."),
    m("jvm.gc_s", "s", "GC time per op, in whole milliseconds (so two runs can read the same); " +
      "should move alloc_mb and op_s on batch-wt and batch-lf."),
    m("enum_s", "s", "TBE+ enumeration over the built graph; a counting-only change leaves it unmoved.",
      Seq("batch-wt")),
    m("core.enum.instances", "count", "Instances emitted by TBE+ (exact); moves enum_s on batch-wt.",
      Seq("batch-wt")),
    m("core.enum_combine_s", "s", "Σ LocalCombine.enumerate; should move enum_s on batch-wt.", Seq("batch-wt")),
    m("jvm.alloc_bytes_per_wedge", "B", "Heap bytes of one TBC++ count / core.wedges_kept; " +
      "should move alloc_mb and op_s on batch-wt and batch-lf.", Batch),
    m("slide_ms_p50", "ms", "Median time between onStep callbacks; moves op_s on stream-lf.", Seq("stream-lf")),
    m("slide_ms_p90", "ms", "90th percentile of the same.", Seq("stream-lf")),
    m("stream_edges_per_s", "edges/s", "(Inserted + expired edges) / Σ slide time.", Seq("stream-lf"),
      better = "higher"),
    m("stream.graph_write_s", "s", "StreamGraph.insert/delete over the slides; should move slide_ms_* on stream-lf.",
      Seq("stream-lf")),
    m("stream.count_insert_s", "s", "Σ STBCPlus.countExtreme(asMin = false); should move slide_ms_* on stream-lf.",
      Seq("stream-lf")),
    m("stream.count_expire_s", "s", "Σ STBCPlus.countExtreme(asMin = true); should move slide_ms_* on stream-lf.",
      Seq("stream-lf")),
    m("stream.parallel_efficiency", "fraction", "Count busy time / (threads × slide wall time); " +
      "should move slide_ms_* on stream-lf.", Seq("stream-lf"), better = "higher"),
    m("stream.thread_scaling", "ratio", "STBC+-1 slide time / STBC+ slide time on the workload threads; " +
      "should move slide_ms_* on stream-lf.", Seq("stream-lf"), better = "higher"),
    m("stream.alloc_mb_per_slide", "MB", "Calling-thread bytes per slide of STBC+-1; " +
      "should move slide_ms_* on stream-lf.", Seq("stream-lf")),
    m("sparkdist.wedge_rows", "count", "Rows of SparkButterfly.wedges (exact); moves op_s on spark-tw.",
      Seq("spark-tw")),
    m("sparkdist.wedge_join_s", "s", "Materialized SparkButterfly.wedges; should move op_s on spark-tw.",
      Seq("spark-tw")),
    m("sparkdist.group_count", "count", "(start, end) groups (exact).", Seq("spark-tw")),
    m("sparkdist.group_max", "count", "Largest group (exact).", Seq("spark-tw")),
    m("sparkdist.group_p99", "count", "99th percentile group size (exact).", Seq("spark-tw")),
    m("sparkdist.serial_stage_s", "s", "Executor time of single-task stages (the global rank window); " +
      "should move op_s on spark-tw.", Seq("spark-tw")),
    m("sparkdist.task_p50_s", "s", "Median task executor time.", Seq("spark-tw")),
    m("sparkdist.task_max_s", "s", "Largest task executor time (skew).", Seq("spark-tw")),
    m("sparkdist.shuffle_write_mb", "MB", "Shuffle bytes written per count.", Seq("spark-tw")),
    m("sparkdist.shuffle_read_mb", "MB", "Shuffle bytes read per count.", Seq("spark-tw")),
    m("sparkdist.executor_run_s", "s", "Σ task executor time per count.", Seq("spark-tw")),
    m("sparkdist.gc_s", "s", "Σ task GC time per count.", Seq("spark-tw")),
  )

  val byName: Map[String, Metric] = (endToEnd ++ perLayer ++ workloadOnly).map(x => x.name -> x).toMap
}
