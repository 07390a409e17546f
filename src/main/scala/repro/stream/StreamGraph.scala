package repro.stream

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

import repro.graph.TemporalEdge

/** Mutable temporal bipartite graph for the stream setting (§ 5).
  *
  * Edges arrive in chronological order (the graph-stream assumption of the
  * paper, § 6 "we assume that edges arrive in chronological order") and are
  * deleted oldest-first by the sliding window. Every vertex owns a dense
  * slot whose incident edges sit in two primitive arrays, neighbour slots
  * and timestamps, sorted by time with the live part at `[head, len)`:
  *
  *   - insertion is an amortized O(1) append (timestamps only grow); a full
  *     array first moves its live part to the front, and doubles only when
  *     more than half of it is live,
  *   - deleting the oldest live edge of both endpoints (the sliding-window
  *     case) is an O(1) head bump; any other deletion splices,
  *   - range queries `[lo, hi]` binary-search the live part — the
  *     "store E(u) in a queue ... use binary search to compress the
  *     traversal range" engineering of Algorithm 7.
  *
  * The vertex-key → slot map is consulted once per edge operation.
  * Traversals follow neighbour slots, so the counting kernels never hash or
  * box. Any number of threads may read the graph while no thread writes it.
  *
  * Vertices from both layers share one key space: upper `2u`, lower `2v+1`.
  */
final class StreamGraph {
  import StreamGraph.Adj

  private val slotOf = mutable.HashMap.empty[Long, Int]
  private val adjs = ArrayBuffer.empty[Adj]

  @inline def upperKey(u: Long): Long = u * 2
  @inline def lowerKey(v: Long): Long = v * 2 + 1

  /** Slot of a vertex key, or -1 if the vertex has never been seen. */
  def slot(key: Long): Int = slotOf.getOrElse(key, -1)

  private def ensure(key: Long): Int =
    slotOf.getOrElseUpdate(key, { adjs += new Adj(key); adjs.length - 1 })

  /** Incident edges of slot `s`. */
  private[stream] def adj(s: Int): Adj = adjs(s)

  /** Number of slots, i.e. of vertices ever inserted. */
  private[stream] def numSlots: Int = adjs.length

  /** Slot of the endpoint `key` of `e`.
    *
    * @throws IllegalArgumentException if that vertex is not in the graph
    */
  private[stream] def endpointSlot(key: Long, e: TemporalEdge): Int = {
    val s = slot(key)
    if (s < 0) throw new IllegalArgumentException(s"edge $e: endpoint key $key is not in the stream graph")
    s
  }

  /** Number of live edges incident to slot `s`. */
  def liveDegree(s: Int): Int = if (s < 0) 0 else adjs(s).size

  /** Total number of live edges. */
  def numEdges: Long = adjs.iterator.map(_.size.toLong).sum / 2

  /** Insert one edge; `t` must not precede any edge already incident to
    * either endpoint.
    */
  def insert(e: TemporalEdge): Unit = {
    val a = ensure(upperKey(e.u))
    val b = ensure(lowerKey(e.v))
    val last = math.max(adjs(a).lastTime, adjs(b).lastTime)
    require(e.t >= last, s"stream graph requires chronological insertion (got $e after time $last)")
    adjs(a).append(b, e.t)
    adjs(b).append(a, e.t)
  }

  /** Delete one edge. O(1) when it is the oldest live edge of both
    * endpoints (the sliding-window case); falls back to a splice.
    *
    * @throws IllegalArgumentException if `e` is not in the graph
    */
  def delete(e: TemporalEdge): Unit = {
    val a = endpointSlot(upperKey(e.u), e)
    val b = endpointSlot(lowerKey(e.v), e)
    // both halves exist or neither does: insert and delete change them together
    if (!adjs(a).remove(b, e.t)) throw new IllegalArgumentException(s"edge $e is not in the stream graph")
    adjs(b).remove(a, e.t)
  }

  /** Visit the live edges of slot `s` with timestamp in the interval bounded
    * by `lo`/`hi` (each strict or inclusive), in time order, as
    * `f(neighbour slot, time)`.
    */
  private[stream] def foreachSlotInRange(s: Int, lo: Long, loStrict: Boolean, hi: Long, hiStrict: Boolean)(
      f: (Int, Long) => Unit): Unit = {
    val a = adjs(s)
    var i = a.from(lo, loStrict)
    val end = a.until(hi, hiStrict)
    while (i < end) { f(a.nbr(i), a.time(i)); i += 1 }
  }

  /** Visit live incident edges of slot `s` with timestamp in the interval
    * bounded by `lo`/`hi` (each strict or inclusive), as
    * `f(neighbour key, time)`. A negative `s` visits nothing.
    */
  def foreachInRange(s: Int, lo: Long, loStrict: Boolean, hi: Long, hiStrict: Boolean)(
      f: (Long, Long) => Unit): Unit =
    if (s >= 0) foreachSlotInRange(s, lo, loStrict, hi, hiStrict)((n, t) => f(adjs(n).key, t))
}

object StreamGraph {

  /** The incident edges of one vertex: neighbour slots `nbr` and times
    * `time`, sorted by time, live at `[head, len)`.
    */
  private[stream] final class Adj(val key: Long) {
    var nbr = new Array[Int](4)
    var time = new Array[Long](4)
    var head = 0
    var len = 0

    def size: Int = len - head

    def lastTime: Long = if (len > head) time(len - 1) else Long.MinValue

    /** First live index whose time is `>= x` (`> x` when `strict`). */
    def from(x: Long, strict: Boolean): Int = {
      var a = head; var b = len
      while (a < b) {
        val m = (a + b) >>> 1
        if (time(m) < x || (strict && time(m) == x)) a = m + 1 else b = m
      }
      a
    }

    /** End (exclusive) of the live times `<= x` (`< x` when `strict`). */
    def until(x: Long, strict: Boolean): Int = from(x, !strict)

    def append(n: Int, t: Long): Unit = {
      if (len == time.length) relocate(if (size * 2 > time.length) time.length * 2 else time.length)
      nbr(len) = n
      time(len) = t
      len += 1
    }

    /** Remove one live edge to slot `n` at time `t`; false if there is none. */
    def remove(n: Int, t: Long): Boolean = {
      if (len > head && nbr(head) == n && time(head) == t) head += 1
      else {
        var i = from(t, strict = false)
        while (i < len && time(i) == t && nbr(i) != n) i += 1
        if (i == len || time(i) != t) return false
        System.arraycopy(nbr, i + 1, nbr, i, len - i - 1)
        System.arraycopy(time, i + 1, time, i, len - i - 1)
        len -= 1
      }
      // shrink below a quarter live; the gap to the doubling threshold
      // keeps a steady window from reallocating
      if (time.length > 64 && size * 4 < time.length) relocate(time.length / 2)
      else if (size == 0) { head = 0; len = 0 }
      true
    }

    /** Move the live edges to the front of arrays of length `cap`, reusing
      * the current arrays when `cap` is their length.
      */
    private def relocate(cap: Int): Unit = {
      val n = size
      val nb = if (cap == nbr.length) nbr else new Array[Int](cap)
      val tm = if (cap == time.length) time else new Array[Long](cap)
      System.arraycopy(nbr, head, nb, 0, n)
      System.arraycopy(time, head, tm, 0, n)
      nbr = nb; time = tm
      head = 0; len = n
    }
  }
}
