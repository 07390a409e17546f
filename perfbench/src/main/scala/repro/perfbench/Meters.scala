package repro.perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.util.concurrent.atomic.AtomicLong
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData
import scala.jdk.CollectionConverters._

import com.sun.management.GarbageCollectionNotificationInfo

/** Order statistics over measured samples. */
object Stats {

  def median(xs: Seq[Double]): Double = percentile(xs, 0.5)

  /** Linear interpolation between closest ranks (the "R-7" definition). */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of no samples")
    val s = xs.sorted
    val pos = p * (s.length - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(lo + 1, s.length - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }
}

/** Heap bytes allocated by every thread of the JVM.
  *
  * JDK 17 has no process-wide allocation counter, and per-thread counters
  * vanish with their thread (STBC+ and Spark run work on pool threads). So
  * the meter keeps its own: bytes allocated up to now = heap occupancy now
  * plus every byte a collection has freed so far. Freed bytes come from the
  * collectors' notifications, which arrive asynchronously; a reading waits
  * until every finished collection has been accounted for. Exact up to the
  * unused tail of thread-local allocation buffers.
  */
final class HeapMeter {

  private val heapPools: Set[String] =
    ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(_.getType == MemoryType.HEAP).map(_.getName).toSet
  private val collectors = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  private val memory = ManagementFactory.getMemoryMXBean

  private val freed = new AtomicLong
  private val seen = new AtomicLong

  private val listener = new NotificationListener {
    def handleNotification(n: Notification, handback: AnyRef): Unit =
      if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
        val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData]).getGcInfo
        def heapUsed(m: java.util.Map[String, java.lang.management.MemoryUsage]): Long =
          m.asScala.iterator.collect { case (k, u) if heapPools(k) => u.getUsed }.sum
        freed.addAndGet(heapUsed(info.getMemoryUsageBeforeGc) - heapUsed(info.getMemoryUsageAfterGc))
        seen.incrementAndGet()
      }
  }
  collectors.foreach(_.asInstanceOf[NotificationEmitter].addNotificationListener(listener, null, null))
  private val baseCount = gcCount

  def gcCount: Long = collectors.iterator.map(_.getCollectionCount).sum
  def gcMillis: Long = collectors.iterator.map(_.getCollectionTime).sum

  /** Bytes allocated since the meter was created (plus a constant). Only
    * differences between two readings are meaningful.
    */
  def allocated(): Long = {
    while (true) {
      val c = gcCount
      val deadline = System.nanoTime() + 5000000000L
      while (seen.get < c - baseCount && System.nanoTime() < deadline) Thread.sleep(1)
      val used = memory.getHeapMemoryUsage.getUsed
      val f = freed.get
      if (gcCount == c) return used + f
    }
    0L
  }

  def close(): Unit =
    collectors.foreach(_.asInstanceOf[NotificationEmitter].removeNotificationListener(listener))
}

/** Heap bytes allocated by the calling thread (`com.sun.management.ThreadMXBean`). */
object ThreadAlloc {
  private val bean = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  def current(): Long = bean.getCurrentThreadAllocatedBytes
}

/** One measured stretch of work: wall time, bytes allocated by all threads,
  * and garbage-collection time and count.
  */
final case class Sample(seconds: Double, heapBytes: Long, gcSeconds: Double, gcCount: Long)

object Sample {
  def measure[A](heap: HeapMeter)(f: => A): (A, Sample) = {
    val h0 = heap.allocated(); val gc0 = heap.gcMillis; val n0 = heap.gcCount
    val t0 = System.nanoTime()
    val out = f
    val t1 = System.nanoTime()
    val h1 = heap.allocated()
    (out, Sample((t1 - t0) / 1e9, h1 - h0, (heap.gcMillis - gc0) / 1e3, heap.gcCount - n0))
  }
}
