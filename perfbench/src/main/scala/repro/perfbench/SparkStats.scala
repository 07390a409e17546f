package repro.perfbench

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerStageCompleted, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession

/** The Spark session of the `spark-tw` workload, with every setting that
  * changes timings pinned here rather than taken from the environment.
  */
object SparkSetup {
  /** Shuffle and spill files go to `java.io.tmpdir`, Spark's default local directory. */
  def session(threads: Int): SparkSession = {
    val s = SparkSession.builder()
      .master(s"local[$threads]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", (2 * threads).toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .config("spark.ui.showConsoleProgress", "false")
      .config("spark.driver.host", "127.0.0.1")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }
}

/** Task, stage and job events of the jobs run under one job group. */
final class SparkStats extends SparkListener {
  import SparkStats.Task

  private val tasks = ArrayBuffer.empty[Task]
  private val stageTasks = mutable.HashMap.empty[Int, Int]
  private val jobsDone = mutable.HashSet.empty[Int]

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    if (m != null)
      tasks += Task(e.stageId, m.executorRunTime, m.jvmGCTime,
        m.shuffleWriteMetrics.bytesWritten, m.shuffleReadMetrics.totalBytesRead)
  }
  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    stageTasks(e.stageInfo.stageId) = e.stageInfo.numTasks
  }
  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized { jobsDone += e.jobId }

  /** Runs `f` under a fresh job group and returns its result with the
    * metrics of every task it ran, once the listener has seen all its jobs.
    */
  def record[A](spark: SparkSession, group: String)(f: => A): (A, Map[String, Double]) = {
    synchronized { tasks.clear(); stageTasks.clear(); jobsDone.clear() }
    val sc = spark.sparkContext
    sc.setJobGroup(group, group)
    val out = try f finally sc.clearJobGroup()
    val ids = sc.statusTracker.getJobIdsForGroup(group).toSeq
    val deadline = System.nanoTime() + 30000000000L
    while (synchronized(!ids.forall(jobsDone)) && System.nanoTime() < deadline) Thread.sleep(5)
    (out, summary())
  }

  private def summary(): Map[String, Double] = synchronized {
    val run = tasks.map(_.runMs / 1e3).toSeq
    Map(
      "sparkdist.serial_stage_s" -> tasks.filter(t => stageTasks.get(t.stage).contains(1)).map(_.runMs).sum / 1e3,
      "sparkdist.task_p50_s" -> (if (run.isEmpty) 0.0 else Stats.median(run)),
      "sparkdist.task_max_s" -> (if (run.isEmpty) 0.0 else run.max),
      "sparkdist.shuffle_write_mb" -> tasks.map(_.shuffleWrite).sum / 1e6,
      "sparkdist.shuffle_read_mb" -> tasks.map(_.shuffleRead).sum / 1e6,
      "sparkdist.executor_run_s" -> run.sum,
      "sparkdist.gc_s" -> tasks.map(_.gcMs).sum / 1e3,
    )
  }
}

object SparkStats {
  private final case class Task(stage: Int, runMs: Long, gcMs: Long, shuffleWrite: Long, shuffleRead: Long)
}
