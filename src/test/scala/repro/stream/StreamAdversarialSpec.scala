package repro.stream

import scala.collection.mutable.ArrayBuffer
import scala.util.Random

import org.scalatest.funsuite.AnyFunSuite

import repro.TestUtil
import repro.core.BruteForce
import repro.graph.TemporalEdge

/** Streams built to break the stream layer: timestamp collisions at window
  * boundaries, multi-edges, extreme durations, and deletions that are not
  * the oldest edge of their endpoints. STBC, STBC+-1 and STBC+-4 must each
  * match BruteForce per type after every step.
  */
class StreamAdversarialSpec extends AnyFunSuite {

  private val algorithms = Seq(0 -> "STBC", 1 -> "STBC+-1", 4 -> "STBC+-4")

  /** `n` edges on `nU` x `nL` vertices, `perTime` consecutive edges per
    * timestamp, upper endpoint 0 taking a `hubShare` of the edges.
    */
  private def stream(seed: Int, nU: Int, nL: Int, n: Int, perTime: Int, hubShare: Double = 0.0) = {
    val rnd = new Random(seed)
    IndexedSeq.tabulate(n) { i =>
      val u = if (rnd.nextDouble() < hubShare) 0 else rnd.nextInt(nU)
      TemporalEdge(u.toLong, rnd.nextInt(nL).toLong, (i / perTime).toLong)
    }
  }

  /** Runs every algorithm over `edges` and checks each window against
    * BruteForce; returns the per-type sums over all windows.
    */
  private def checkWindows(edges: IndexedSeq[TemporalEdge], window: Int, stride: Int,
                           delta: Long, label: String): Array[Long] = {
    val sums = new Array[Long](6)
    for ((threads, tag) <- algorithms) {
      val seen = new Array[Long](6)
      SlidingWindow.run(edges, window, stride, delta, threads, onStep = { step =>
        val expect = BruteForce.countByType(edges.slice(step.windowStart, step.windowEnd), delta)
        TestUtil.assertCountsEqual(expect, step.counts, s"$label $tag step ${step.index}")
        for (i <- 0 until 6) seen(i) += step.counts(i)
      })
      if (threads == 0) Array.copy(seen, 0, sums, 0, 6)
    }
    sums
  }

  test("equal timestamps straddling the window boundaries") {
    // five edges per timestamp; window and stride are not multiples of five,
    // so every boundary cuts a run of equal timestamps
    val edges = stream(seed = 3, nU = 4, nL = 4, n = 200, perTime = 5)
    val sums = checkWindows(edges, window = 37, stride = 11, delta = 6, "collisions")
    assert(sums.sum > 0, "the stream should hold butterflies")
  }

  test("multi-edges: one pair at several times and twice at one time") {
    val base = stream(seed = 5, nU = 3, nL = 3, n = 150, perTime = 2)
    // every seventh edge arrives twice, identical
    val edges = base.zipWithIndex.flatMap { case (e, i) => if (i % 7 == 0) Seq(e, e) else Seq(e) }
    val sums = checkWindows(edges, window = 40, stride = 13, delta = 10, "multi-edges")
    assert(sums.sum > 0, "the stream should hold butterflies")
  }

  test("delta = 0 finds nothing; delta >= stream span counts every window") {
    val edges = stream(seed = 7, nU = 4, nL = 4, n = 160, perTime = 2)
    val span = edges.last.t - edges.head.t
    assert(checkWindows(edges, window = 50, stride = 15, delta = 0, "delta=0").forall(_ == 0L))
    for (delta <- Seq(span, 10 * span))
      assert(checkWindows(edges, window = 50, stride = 15, delta, s"delta=$delta").sum > 0)
  }

  test("non-oldest deletions, head compaction, array growth and shrinking") {
    // The hub takes most edges, so its queue grows past 64 entries. Each
    // stride expires the oldest edges newest-first: every deletion but the
    // last of a stride splices, and appends into the shifted queue compact
    // its head. Draining the window at the end shrinks the queue again.
    val edges = stream(seed = 11, nU = 4, nL = 6, n = 600, perTime = 3, hubShare = 0.6)
    val (window, stride, delta) = (200, 50, 30L)
    for ((threads, tag) <- algorithms) {
      val g = new StreamGraph
      val counts = new Array[Long](6)
      val live = ArrayBuffer.empty[TemporalEdge]
      def check(what: String): Unit =
        TestUtil.assertCountsEqual(BruteForce.countByType(live.toSeq, delta), counts, s"$tag $what")
      def hubCapacity = g.adj(g.slot(g.upperKey(0))).time.length
      def insert(batch: IndexedSeq[TemporalEdge]): Unit = {
        if (threads == 0) batch.foreach { e =>
          g.insert(e)
          val c = STBC.countContaining(g, e, delta); for (i <- 0 until 6) counts(i) += c(i)
        } else {
          val c = STBCPlus.insertBatch(g, batch, delta, threads); for (i <- 0 until 6) counts(i) += c(i)
        }
        live ++= batch
      }
      def expire(oldest: IndexedSeq[TemporalEdge]): Unit = {
        val batch = oldest.reverse
        if (threads == 0) batch.foreach { e =>
          val c = STBC.countContaining(g, e, delta); for (i <- 0 until 6) counts(i) -= c(i)
          g.delete(e)
        } else {
          val c = STBCPlus.deleteBatch(g, batch, delta, threads); for (i <- 0 until 6) counts(i) -= c(i)
        }
        batch.foreach(live -= _)
      }

      insert(edges.take(window))
      check("first window")
      var maxCapacity = hubCapacity
      var start = 0
      while (start + window < edges.length) {
        insert(edges.slice(start + window, start + window + stride))
        check(s"insert at $start")
        expire(edges.slice(start, start + stride))
        check(s"expire at $start")
        maxCapacity = math.max(maxCapacity, hubCapacity)
        start += stride
      }
      while (live.nonEmpty) {
        expire(live.take(stride).toIndexedSeq)
        check(s"drain to ${live.length}")
      }
      assert(g.numEdges == 0 && counts.forall(_ == 0L))
      assert(maxCapacity > 64, s"$tag: hub queue never grew past 64 ($maxCapacity)")
      assert(hubCapacity < maxCapacity, s"$tag: hub queue did not shrink")
    }
  }

  test("delta = Long.MaxValue: STBC, STBC+-1 and STBC+-3 match BruteForce in every window") {
    // one T0 butterfly at T+1..T+4, then an edge that forms none; with
    // window 4 and stride 1 the second window has no butterfly. Timestamps
    // far from zero make t + delta overflow unless the bounds saturate.
    val T = 1000000L
    val delta = Long.MaxValue
    val butterfly = TestUtil.singleButterfly(T + 1, T + 2, T + 3, T + 4)
    for (edges <- Seq(butterfly, butterfly :+ TemporalEdge(2, 2, T + 5)); threads <- Seq(0, 1, 3)) {
      val steps = ArrayBuffer.empty[Array[Long]]
      SlidingWindow.run(edges, window = 4, stride = 1, delta, threads, onStep = { step =>
        TestUtil.assertCountsEqual(BruteForce.countByType(edges.slice(step.windowStart, step.windowEnd), delta),
          step.counts, s"${edges.length} edges, threads $threads, step ${step.index}")
        steps += step.counts
      })
      assert(steps.map(_.sum).toSeq == Seq(1L, 0L).take(edges.length - 3))
    }
  }

  test("a negative delta is rejected") {
    val edges = TestUtil.singleButterfly(1, 2, 3, 4)
    for (threads <- Seq(0, 1, 3)) {
      val e = intercept[IllegalArgumentException](SlidingWindow.run(edges, 4, 1, -1L, threads))
      assert(e.getMessage.contains("-1"), e.getMessage)
    }
  }
}
