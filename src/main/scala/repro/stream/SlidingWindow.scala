package repro.stream

import java.util.concurrent.ExecutorService

import repro.core.Delta
import repro.graph.TemporalEdge

/** Sliding-window streaming temporal butterfly counting (§ 6.2).
  *
  * The stream is a chronologically-sorted edge sequence; the window holds
  * `window` edges and advances by `stride` edges per step (both measured in
  * edges, as in the paper's Sliding Window Model setup). At every step the
  * maintained per-type counts equal an exact from-scratch count over the
  * window contents — incrementality never approximates.
  *
  * `threads == 0` selects the sequential single-edge algorithm STBC;
  * `threads >= 1` selects the batch algorithm STBC+ with that many worker
  * threads (STBC+-1 matches the paper's single-thread batch variant). With
  * more than one thread, a run owns one fixed pool for all of its batches
  * and shuts it down before returning, also when `onStep` throws.
  */
object SlidingWindow {

  final case class Step(index: Int, windowStart: Int, windowEnd: Int, counts: Array[Long])

  def run(
      edges: IndexedSeq[TemporalEdge], window: Int, stride: Int, delta: Long,
      threads: Int = 0,
      onStep: Step => Unit = _ => ()): Array[Long] = {
    require(window > 0 && stride > 0 && stride <= window, "need 0 < stride <= window")
    require(threads >= 0, s"threads must be >= 0 (0 selects STBC), got $threads")
    Delta.check(delta)
    var i = 1
    while (i < edges.length) {
      if (edges(i).t < edges(i - 1).t)
        throw new IllegalArgumentException(
          s"stream edges must be chronologically sorted: edge $i ${edges(i)} follows ${edges(i - 1)}")
      i += 1
    }
    if (threads > 1) STBCPlus.withPool(threads)(p => slide(edges, window, stride, delta, threads, Some(p), onStep))
    else slide(edges, window, stride, delta, threads, None, onStep)
  }

  private def slide(
      edges: IndexedSeq[TemporalEdge], window: Int, stride: Int, delta: Long,
      threads: Int, pool: Option[ExecutorService], onStep: Step => Unit): Array[Long] = {
    val g = new StreamGraph
    val counts = new Array[Long](6)

    def add(c: Array[Long]): Unit = { var i = 0; while (i < 6) { counts(i) += c(i); i += 1 } }
    def sub(c: Array[Long]): Unit = { var i = 0; while (i < 6) { counts(i) -= c(i); i += 1 } }

    def insertRange(lo: Int, hi: Int): Unit =
      if (threads == 0) {
        var i = lo
        while (i < hi) {
          val e = edges(i)
          g.insert(e)
          add(STBC.countContaining(g, e, delta))
          i += 1
        }
      } else add(STBCPlus.insertBatch(g, edges.slice(lo, hi), delta, threads, pool))

    def deleteRange(lo: Int, hi: Int): Unit =
      if (threads == 0) {
        var i = lo
        while (i < hi) {
          val e = edges(i)
          sub(STBC.countContaining(g, e, delta))
          g.delete(e)
          i += 1
        }
      } else sub(STBCPlus.deleteBatch(g, edges.slice(lo, hi), delta, threads, pool))

    val firstEnd = math.min(window, edges.length)
    insertRange(0, firstEnd)
    var stepIdx = 0
    var start = 0
    var end = firstEnd
    onStep(Step(stepIdx, start, end, counts.clone()))

    while (end < edges.length) {
      val newEnd = math.min(end + stride, edges.length)
      // insert the incoming stride first, then expire the oldest edges —
      // the paper's STBC+ protocol (all insertions land before counting,
      // deletions are counted before they are applied).
      insertRange(end, newEnd)
      val newStart = start + (newEnd - end)
      deleteRange(start, newStart)
      start = newStart
      end = newEnd
      stepIdx += 1
      onStep(Step(stepIdx, start, end, counts.clone()))
    }
    counts
  }
}
