package repro.core

import scala.collection.mutable.ArrayBuffer
import repro.graph.LocalGraph

/** Single-JVM drivers for the five algorithms of §§ 3–4: TBC, TBE, TBC+,
  * TBE+, TBC++. These mirror the C++ reference structure: iterate every
  * vertex as start-vertex, enumerate wedges toward strictly lower-priority
  * middle- and end-vertices, group per end-vertex, and combine.
  *
  * The wedges of one start-vertex are dropped before the next is
  * processed; only the group buffers' capacity carries over.
  */
object LocalAlgos {

  /** First position of the time-sorted `times` with `times(i) >= x`
    * (`> x` when `strict`).
    */
  private def firstFrom(times: Array[Long], x: Long, strict: Boolean): Int = {
    var lo = 0; var hi = times.length
    while (lo < hi) {
      val m = (lo + hi) >>> 1
      if (times(m) < x || (strict && times(m) == x)) lo = m + 1 else hi = m
    }
    lo
  }

  /** Run `f(start, end, wedges)` on every (start-vertex, end-vertex) group
    * of at least two wedges; fewer cannot form a butterfly.
    *
    * Each start-vertex's wedges go toward strictly lower-priority middle-
    * and end-vertices. `prune` applies Lemma 1 at enumeration time
    * (TBC+/TBC++): the second hop is binary-searched to `[t1 − δ, t1 + δ]`
    * of the time-sorted adjacency. The baseline visits every wedge and
    * defers all checks to the combine phase. Wedges are grouped by
    * end-vertex through a per-vertex stamp, and the group buffers are
    * reused from one start-vertex to the next.
    */
  private def foreachGroup(g: LocalGraph, delta: Long, prune: Boolean)(
      f: (Int, Int, ArrayBuffer[(Long, Long, Long)]) => Unit): Unit = {
    val stamp = new Array[Int](g.n) // u + 1 once end-vertex w has a group for start-vertex u
    val slot = new Array[Int](g.n)  // w's group for the current start-vertex
    val ends = new Array[Int](g.n)  // each group's end-vertex
    val groups = ArrayBuffer.empty[ArrayBuffer[(Long, Long, Long)]]
    var u = 0
    while (u < g.n) {
      val pu = g.pri(u)
      var used = 0
      val nbrs = g.adjN(u); val times = g.adjT(u)
      var i = 0
      while (i < nbrs.length) {
        val v = nbrs(i); val t1 = times(i)
        if (pu > g.pri(v)) {
          val mid = g.origId(v)
          val nbrs2 = g.adjN(v); val times2 = g.adjT(v)
          var j = if (prune) firstFrom(times2, Delta.minus(t1, delta), strict = false) else 0
          val jEnd = if (prune) firstFrom(times2, Delta.plus(t1, delta), strict = true) else nbrs2.length
          while (j < jEnd) {
            val w = nbrs2(j); val t2 = times2(j)
            if (pu > g.pri(w) && (!prune || t2 != t1)) {
              if (stamp(w) != u + 1) {
                stamp(w) = u + 1; slot(w) = used; ends(used) = w
                if (used == groups.length) groups += new ArrayBuffer else groups(used).clear()
                used += 1
              }
              groups(slot(w)) += ((mid, t1, t2))
            }
            j += 1
          }
        }
        i += 1
      }
      var k = 0
      while (k < used) {
        if (groups(k).length > 1) f(u, ends(k), groups(k))
        k += 1
      }
      u += 1
    }
  }

  /** Run `variant` counting over the whole graph.
    *
    * @throws IllegalArgumentException if `delta < 0`
    */
  def count(g: LocalGraph, delta: Long, variant: Variant,
            deadline: Long = Long.MaxValue): Array[Long] = {
    Delta.check(delta)
    val counts = new Array[Long](ButterflyType.NumTypes)
    foreachGroup(g, delta, variant != Variant.Baseline) { (u, _, ws) =>
      LocalCombine.count(ws, g.layer(u).toInt, delta, variant, counts, deadline)
    }
    counts
  }

  /** TBC — the baseline counting algorithm (Algorithm 1). */
  def tbc(g: LocalGraph, delta: Long, deadline: Long = Long.MaxValue): Array[Long] =
    count(g, delta, Variant.Baseline, deadline)

  /** TBC+ — wedge sets + wedge priority + hashmap HP (Algorithm 2/3/4). */
  def tbcPlus(g: LocalGraph, delta: Long, deadline: Long = Long.MaxValue): Array[Long] =
    count(g, delta, Variant.Plus, deadline)

  /** TBC++ — TBC+ with the twin order-statistic trees (Algorithm 6), as
    * Fenwick rank indexes ([[RankIndex]]).
    */
  def tbcPlusPlus(g: LocalGraph, delta: Long, deadline: Long = Long.MaxValue): Array[Long] =
    count(g, delta, Variant.PlusPlus, deadline)

  /** Run `variant` enumeration; `collect` decides whether instances are
    * materialized (tests) or only counted (benches mirror the paper's
    * "no output" protocol).
    *
    * @throws IllegalArgumentException if `delta < 0`
    */
  def enumerate(
      g: LocalGraph, delta: Long, variant: Variant,
      collect: Boolean, deadline: Long = Long.MaxValue
  ): (Long, ArrayBuffer[Instance]) = {
    Delta.check(delta)
    val out = new ArrayBuffer[Instance]()
    var total = 0L
    foreachGroup(g, delta, variant != Variant.Baseline) { (u, w, ws) =>
      val layer = g.layer(u).toInt
      val startOrig = g.origId(u)
      val endOrig = g.origId(w)
      val sink = new SetCross.EnumSink {
        def emit(btype: Int, mid1: Long, s1: Long, a1: Long,
                 mid2: Long, s2: Long, a2: Long): Unit = {
          total += 1
          if (collect)
            out += Instance.canonical(btype, layer, startOrig, endOrig, mid1, mid2, s1, a1, s2, a2)
        }
      }
      LocalCombine.enumerate(ws, layer, delta, variant, sink, deadline)
    }
    (total, out)
  }

  /** TBE — baseline enumeration (§ 3). */
  def tbe(g: LocalGraph, delta: Long, collect: Boolean = true,
          deadline: Long = Long.MaxValue): (Long, ArrayBuffer[Instance]) =
    enumerate(g, delta, Variant.Baseline, collect, deadline)

  /** TBE+ — optimized enumeration (§ 4.3). */
  def tbePlus(g: LocalGraph, delta: Long, collect: Boolean = true,
              deadline: Long = Long.MaxValue): (Long, ArrayBuffer[Instance]) =
    enumerate(g, delta, Variant.Plus, collect, deadline)
}
