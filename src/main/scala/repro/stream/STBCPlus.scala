package repro.stream

import java.util.Arrays
import java.util.concurrent.{Callable, ExecutionException, ExecutorService, Executors, ThreadFactory, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger
import scala.jdk.CollectionConverters._

import repro.core.Delta
import repro.graph.TemporalEdge

/** STBC+ (Algorithm 8): batch stream updates with multi-core parallelism.
  *
  * Count conflicts across a batch are resolved by Lemma 8: a temporal
  * butterfly is charged to exactly one batch edge — the one holding its
  * unique minimum timestamp for deletions (traversal range `(t, t + delta]`)
  * and its unique maximum for insertions (range `[t - delta, t)`). With the
  * range pinned to one side of `t`, the duration constraint holds by
  * construction, so the dynamic red-black trees of TBC++ degrade to two
  * plain sorted arrays `VS`/`VA` per direction and every coverage case is a
  * pair of binary searches.
  *
  * The maximum-side counting is implemented by time reversal: negating all
  * timestamps turns "edge is the unique maximum over `[t - delta, t)`" into
  * "edge is the unique minimum over `(-t, -t + delta]`", and the butterfly
  * type is invariant under time reversal (both wedge directions flip, so
  * direction-equality and coverage are preserved).
  *
  * The per-edge kernel allocates nothing once its thread's scratch buffers
  * have grown to fit. It mirrors the rank queries: instead of sorting the
  * wedges of each end-vertex `w` into `VS`/`VA` and querying them once per
  * leg `v -> w`, it keeps the legs of each `w` sorted and queries them once
  * per wedge, which gives the same counts pair by pair. The legs are
  * collected first: a per-slot epoch stamp numbers their end-vertices
  * densely, a counting sort buckets them in one flat `Array[Long]`, and
  * each bucket comes out sorted because `v`'s queue is. Wedges toward an
  * end-vertex `v` does not reach are skipped without being stored; no
  * wedge is stored at all.
  *
  * Batch edges are spread over a fixed thread pool; each worker accumulates
  * into a private count array and the partials are summed — no shared
  * mutable state during counting (edges are physically inserted before /
  * deleted after the counting pass, exactly as the paper prescribes to
  * avoid read-write conflicts).
  */
object STBCPlus {

  /** Name prefix of the pool threads that count batches. */
  private[stream] val WorkerPrefix = "stbc-plus-worker-"

  /** One thread's reusable buffers for `accumulate`. */
  private final class Scratch {
    /** Calls so far on this thread; a slot stamped with it is an end-vertex
      * reached through `v` in the current call.
      */
    var epoch = 0
    var stamp = Array.emptyIntArray // per graph slot
    var endIdx = Array.emptyIntArray // per graph slot: dense end-vertex index
    var legFrom = Array.emptyIntArray // per end-vertex: where its legs start in `legA`
    var legA = Array.emptyLongArray // signed end-leg times, bucketed by end-vertex, ascending in each

    /** Start a call on a graph with `slots` slots and up to `legs` legs. */
    def begin(slots: Int, legs: Int): Unit = {
      if (stamp.length < slots) {
        val n = math.max(slots, stamp.length * 2)
        stamp = new Array[Int](n)
        endIdx = new Array[Int](n)
        epoch = 0
      }
      if (epoch == Int.MaxValue) { Arrays.fill(stamp, 0); epoch = 0 }
      epoch += 1
      if (legA.length < legs) {
        val n = math.max(legs, legA.length * 2)
        legA = new Array[Long](n)
        legFrom = new Array[Int](n + 1)
      }
    }
  }

  private val scratch = ThreadLocal.withInitial[Scratch](() => new Scratch)

  /** Number of entries in `xs[from, to)` that are `< x` (`<= x` when `orEqual`). */
  private def rank(xs: Array[Long], from: Int, to: Int, x: Long, orEqual: Boolean): Int = {
    var lo = from; var hi = to
    while (lo < hi) {
      val m = (lo + hi) >>> 1
      if (xs(m) < x || (orEqual && xs(m) == x)) lo = m + 1 else hi = m
    }
    lo - from
  }

  /** Count the butterflies in which `e` carries the strict minimum
    * timestamp (`asMin = true`) or strict maximum (`asMin = false`).
    * The edge must be present in `g`.
    *
    * @throws IllegalArgumentException if an endpoint of `e` is not in `g`
    */
  def countExtreme(g: StreamGraph, e: TemporalEdge, delta: Long, asMin: Boolean): Array[Long] = {
    val counts = new Array[Long](6)
    accumulate(g, e, delta, asMin, counts)
    counts
  }

  /** `countExtreme`, added into `out`. */
  private def accumulate(g: StreamGraph, e: TemporalEdge, delta: Long, asMin: Boolean, out: Array[Long]): Unit = {
    val su = g.endpointSlot(g.upperKey(e.u), e)
    val sv = g.endpointSlot(g.lowerKey(e.v), e)
    val t = e.t
    // Under time reversal every collected timestamp is negated; `sgn`
    // folds that into the collection step.
    val sgn = if (asMin) 1L else -1L
    val lo = if (asMin) t else Delta.minus(t, delta)
    val hi = if (asMin) Delta.plus(t, delta) else t
    val loStrict = asMin
    val hiStrict = !asMin

    // 1. legs v -> w, w != u: number the end-vertices densely, count their legs
    val av = g.adj(sv)
    val first = av.from(lo, loStrict)
    val last = av.until(hi, hiStrict)
    val sc = scratch.get
    sc.begin(g.numSlots, last - first)
    val epoch = sc.epoch
    val stamp = sc.stamp
    val endIdx = sc.endIdx
    val legFrom = sc.legFrom
    val legA = sc.legA
    var ends = 0
    var i = first
    while (i < last) {
      val w = av.nbr(i)
      if (w != su) {
        if (stamp(w) != epoch) { stamp(w) = epoch; endIdx(w) = ends; legFrom(ends) = 0; ends += 1 }
        legFrom(endIdx(w)) += 1
      }
      i += 1
    }
    if (ends == 0) return
    var k = 1
    while (k < ends) { legFrom(k) += legFrom(k - 1); k += 1 }
    legFrom(ends) = legFrom(ends - 1)
    // Fill each bucket back to front in descending signed time, so the
    // buckets come out ascending and legFrom(k) ends at bucket k's start.
    // `v`'s queue is time-sorted, so no sort is needed.
    i = if (asMin) last - 1 else first
    while (i >= first && i < last) {
      val w = av.nbr(i)
      if (w != su) {
        val b = endIdx(w)
        legFrom(b) -= 1
        legA(legFrom(b)) = sgn * av.time(i)
      }
      i += (if (asMin) -1 else 1)
    }

    // 2. every wedge u -> x -> w, x != v, toward those end-vertices (u is
    //    never stamped): the via-v wedge (sgn*t, a) is forward with the
    //    globally minimal start leg, so against a wedge with normalized legs
    //    vs < va the coverage cases of Query() in Algorithm 4 are
    //    c11: a < vs, c13: vs < a < va, c15: va < a — rank queries on the
    //    sorted legs of w; the wedge's direction picks types 0-2 or 3-5.
    val au = g.adj(su)
    i = au.from(lo, loStrict)
    val uEnd = au.until(hi, hiStrict)
    while (i < uEnd) {
      val x = au.nbr(i)
      if (x != sv) {
        val s = sgn * au.time(i)
        val ax = g.adj(x)
        var j = ax.from(lo, loStrict)
        val jEnd = ax.until(hi, hiStrict)
        while (j < jEnd) {
          val w = ax.nbr(j)
          val a = sgn * ax.time(j)
          if (stamp(w) == epoch && a != s) {
            val b = endIdx(w)
            val from = legFrom(b)
            val to = legFrom(b + 1)
            val vs = math.min(s, a)
            val va = math.max(s, a)
            val d = if (s < a) 0 else 3
            out(d) += rank(legA, from, to, vs, orEqual = false)
            out(d + 1) += rank(legA, from, to, va, orEqual = false) - rank(legA, from, to, vs, orEqual = true)
            out(d + 2) += (to - from) - rank(legA, from, to, va, orEqual = true)
          }
          j += 1
        }
      }
      i += 1
    }
  }

  /** Run `f` on a fixed pool of `threads` daemon workers named
    * [[WorkerPrefix]]`N`, shutting the pool down when `f` returns or throws.
    */
  private[stream] def withPool[A](threads: Int)(f: ExecutorService => A): A = {
    val next = new AtomicInteger
    val factory: ThreadFactory = { r =>
      val th = new Thread(r, WorkerPrefix + next.incrementAndGet())
      th.setDaemon(true)
      th
    }
    val pool = Executors.newFixedThreadPool(threads, factory)
    try f(pool)
    finally {
      pool.shutdown()
      pool.awaitTermination(1, TimeUnit.HOURS)
    }
  }

  /** Parallel fold of `countExtreme` over a batch, on `pool` when given and
    * on a pool of its own otherwise.
    */
  private def batchCount(
      g: StreamGraph, batch: Seq[TemporalEdge], delta: Long,
      asMin: Boolean, threads: Int, pool: Option[ExecutorService]): Array[Long] = {
    val total = new Array[Long](6)
    val nThreads = math.max(1, threads)
    if (batch.isEmpty) total
    else if (nThreads == 1) {
      batch.foreach(accumulate(g, _, delta, asMin, total))
      total
    } else {
      val edges = batch.toIndexedSeq
      // edges differ widely in cost (hubs), so workers take them one by one
      val next = new AtomicInteger
      val tasks = Seq.fill(nThreads)(
        new Callable[Array[Long]] {
          def call(): Array[Long] = {
            val local = new Array[Long](6)
            var i = next.getAndIncrement()
            while (i < edges.length) { accumulate(g, edges(i), delta, asMin, local); i = next.getAndIncrement() }
            local
          }
        }).asJava
      val results = pool match {
        case Some(p) => p.invokeAll(tasks)
        case None => withPool(nThreads)(_.invokeAll(tasks))
      }
      results.asScala.foreach { fut =>
        val c = try fut.get() catch { case ex: ExecutionException => throw ex.getCause }
        var i = 0; while (i < 6) { total(i) += c(i); i += 1 }
      }
      total
    }
  }

  /** Insert a chronologically-sorted batch; returns the per-type counts of
    * butterflies created. Edges are inserted first, then counted (each on
    * its maximum-timestamp edge), per the paper's conflict-free protocol.
    * With `threads > 1` the counting runs on `pool` if given.
    */
  def insertBatch(g: StreamGraph, batch: Seq[TemporalEdge], delta: Long,
                  threads: Int = 1, pool: Option[ExecutorService] = None): Array[Long] = {
    batch.foreach(g.insert)
    batchCount(g, batch, delta, asMin = false, threads, pool)
  }

  /** Delete a batch of the globally-oldest edges; returns the per-type
    * counts of butterflies destroyed. Counting happens before deletion
    * (each butterfly on its minimum-timestamp edge).
    * With `threads > 1` the counting runs on `pool` if given.
    */
  def deleteBatch(g: StreamGraph, batch: Seq[TemporalEdge], delta: Long,
                  threads: Int = 1, pool: Option[ExecutorService] = None): Array[Long] = {
    val removed = batchCount(g, batch, delta, asMin = true, threads, pool)
    batch.foreach(g.delete)
    removed
  }
}
