package repro.core

import scala.collection.mutable.ArrayBuffer

import repro.util.ArgSort

/** A flat list of normalized wedges (`ts < ta`) sorted by wedge priority:
  * `ts` descending, then `ta` ascending (Definition 6 — lower priority, i.e.
  * larger `ts`, is processed first). `mid` carries the middle-vertex for
  * enumeration; counting ignores it. `ord` holds the positions sorted by
  * `ta` ascending, so an index over the list ranks end times without
  * sorting.
  */
final class WList(val ts: Array[Long], val ta: Array[Long], val mid: Array[Long], val ord: Array[Int]) {
  @inline def size: Int = ts.length
}

object WList {
  val empty = new WList(Array.emptyLongArray, Array.emptyLongArray, Array.emptyLongArray, Array.emptyIntArray)

  /** Build a priority-sorted list from the first `n` unsorted normalized
    * wedges `(ts(i), ta(i))`, with primitive index sorts.
    */
  def sorted(ts: Array[Long], ta: Array[Long], n: Int, mid: Long): WList =
    if (n == 0) empty
    else {
      val byPri = ArgSort(n)((i, j) => if (ts(i) != ts(j)) ts(i) > ts(j) else ta(i) < ta(j))
      val sTs = new Array[Long](n); val sTa = new Array[Long](n)
      var k = 0
      while (k < n) { sTs(k) = ts(byPri(k)); sTa(k) = ta(byPri(k)); k += 1 }
      val mids = new Array[Long](n)
      java.util.Arrays.fill(mids, mid)
      new WList(sTs, sTa, mids, ArgSort(n)((i, j) => sTa(i) < sTa(j)))
    }

  /** Build a priority-sorted list from unsorted normalized wedges `(ts, ta)`. */
  def sorted(buf: ArrayBuffer[(Long, Long)], mid: Long): WList =
    sorted(buf.iterator.map(_._1).toArray, buf.iterator.map(_._2).toArray, buf.length, mid)

  /** Mergesort-style merge of two priority-sorted lists (Merge() of Alg. 3);
    * the `ta` orders of the two are merged alongside, in linear time.
    */
  def merge(x: WList, y: WList): WList = {
    if (x.size == 0) return y
    if (y.size == 0) return x
    val n = x.size + y.size
    val ts = new Array[Long](n); val ta = new Array[Long](n); val mid = new Array[Long](n)
    // where each wedge lands: x's at [0, x.size), y's at [x.size, n)
    val at = new Array[Int](n)
    var i = 0; var j = 0; var k = 0
    while (i < x.size && j < y.size) {
      val takeX =
        if (x.ts(i) != y.ts(j)) x.ts(i) > y.ts(j)
        else x.ta(i) <= y.ta(j)
      if (takeX) { ts(k) = x.ts(i); ta(k) = x.ta(i); mid(k) = x.mid(i); at(i) = k; i += 1 }
      else { ts(k) = y.ts(j); ta(k) = y.ta(j); mid(k) = y.mid(j); at(x.size + j) = k; j += 1 }
      k += 1
    }
    while (i < x.size) { ts(k) = x.ts(i); ta(k) = x.ta(i); mid(k) = x.mid(i); at(i) = k; i += 1; k += 1 }
    while (j < y.size) { ts(k) = y.ts(j); ta(k) = y.ta(j); mid(k) = y.mid(j); at(x.size + j) = k; j += 1; k += 1 }
    val ord = new Array[Int](n)
    i = 0; j = 0; k = 0
    while (i < x.size && j < y.size) {
      if (x.ta(x.ord(i)) <= y.ta(y.ord(j))) { ord(k) = at(x.ord(i)); i += 1 }
      else { ord(k) = at(x.size + y.ord(j)); j += 1 }
      k += 1
    }
    while (i < x.size) { ord(k) = at(x.ord(i)); i += 1; k += 1 }
    while (j < y.size) { ord(k) = at(x.size + y.ord(j)); j += 1; k += 1 }
    new WList(ts, ta, mid, ord)
  }
}

/** A wedge set `S_v = (A, D)` (Definition 5): forward wedges in `a`,
  * backward wedges (timestamps swapped on insert) in `d`.
  */
final class Side(val a: WList, val d: WList) {
  def size: Int = a.size + d.size
}

/** Collects raw wedges `(s, a)` — start-leg and end-leg time — into one
  * wedge set: drops the wedges Lemma 1 rules out (`s == a` or
  * `|a - s| > delta`), normalizes the rest to `ts < ta` and splits them
  * into forward (A) and backward (D) lists.
  */
final class SideBuilder {
  /** Growable parallel `(ts, ta)` arrays of one direction. */
  private final class Legs {
    var ts = new Array[Long](4)
    var ta = new Array[Long](4)
    var n = 0
    def add(s: Long, a: Long): Unit = {
      if (n == ts.length) {
        ts = java.util.Arrays.copyOf(ts, 2 * n)
        ta = java.util.Arrays.copyOf(ta, 2 * n)
      }
      ts(n) = s; ta(n) = a; n += 1
    }
    def result(mid: Long): WList = WList.sorted(ts, ta, n, mid)
  }

  private val fa = new Legs
  private val fd = new Legs

  def add(s: Long, a: Long, delta: Long): Unit =
    if (s != a && math.abs(a - s) <= delta) {
      if (s < a) fa.add(s, a) else fd.add(a, s)
    }

  /** Whether any added wedge survived the pruning. */
  def nonEmpty: Boolean = fa.n > 0 || fd.n > 0

  /** The wedge set, both lists sorted by wedge priority, tagged with `mid`. */
  def result(mid: Long): Side = new Side(fa.result(mid), fd.result(mid))
}

/** Thrown by the benchmark deadline check — the analogue of the paper's
  * 100,000 s execution cap.
  */
final class BenchTimeout extends RuntimeException("bench deadline exceeded")

/** The Combine()/Recur()/SetCross() framework of Algorithms 2–6.
  *
  * `recur` merges the per-middle-vertex wedge sets bottom-up
  * (Mergesort-style); each `cross` pairs the wedges of two merged halves —
  * which by construction have disjoint middle-vertex populations, so only
  * valid butterfly wedge pairs are ever examined, and each exactly once.
  */
object SetCross {

  /** Sink for enumeration: receives one butterfly per call, as the two raw
    * wedge records `(mid, ts, ta)` plus the pre-computed type.
    */
  trait EnumSink {
    def emit(btype: Int, mid1: Long, s1: Long, a1: Long, mid2: Long, s2: Long, a2: Long): Unit
  }

  /** Recur() of Algorithms 3–5: calls `crossPair` on the two merged halves
    * at every merge node. Counting (TBC+/TBC++) and enumeration (TBE+)
    * differ only in that call. The root's halves are crossed but never
    * merged: nothing reads the merged whole.
    */
  private[core] def recur(sides: Array[Side])(crossPair: (Side, Side) => Unit): Unit = {
    def go(lo: Int, hi: Int): Side =
      if (hi - lo == 1) sides(lo)
      else {
        val mid = (lo + hi) >>> 1
        val l = go(lo, mid)
        val r = go(mid, hi)
        crossPair(l, r)
        if (hi - lo == sides.length) null
        else new Side(WList.merge(l.a, r.a), WList.merge(l.d, r.d))
      }
    if (sides.length > 1) go(0, sides.length)
  }

  /** Recursively combine `sides` and add butterfly counts into `counts`.
    *
    * @param mkIndex  index factory, called once per list of every cross
    *                 (HPIndex for TBC+, TreeIndex for the twin-tree TBC++)
    * @param deadline `System.nanoTime` cap; [[BenchTimeout]] past it
    */
  def recurCount(
      sides: Array[Side], layer: Int, delta: Long,
      counts: Array[Long], mkIndex: () => WedgeIndex,
      deadline: Long = Long.MaxValue): Unit = {
    val perList: WList => WedgeIndex = _ => mkIndex()
    recur(sides)(cross(_, _, layer, delta, counts, perList, null, deadline))
  }

  // For a wedge from list k (si.a, si.d, sj.a, sj.d), the same-direction
  // partner list and the different-direction partner list — always on the
  // *other* side.
  private val SamePartner = Array(2, 3, 0, 1)
  private val DiffPartner = Array(3, 2, 1, 0)

  /** SetCross() (Algorithm 3 lines 8–28): pair every wedge of side `si`
    * with every compatible wedge of side `sj`, processing all four subsets
    * jointly in `ts`-descending rounds so each index only ever holds wedges
    * with strictly larger start times than the current one.
    *
    * `mkIndex` builds the index of one of the four lists; the wedges it
    * later receives are exactly that list's, in list order.
    *
    * When `sink` is null, counts are accumulated into `counts`; otherwise
    * instances are emitted (and `counts` may be null).
    */
  def cross(
      si: Side, sj: Side, layer: Int, delta: Long,
      counts: Array[Long], mkIndex: WList => WedgeIndex,
      sink: EnumSink, deadline: Long = Long.MaxValue): Unit = {
    if (si.size == 0 || sj.size == 0) return
    val lists = Array(si.a, si.d, sj.a, sj.d)
    val idx = lists.map(mkIndex)
    val ptr = new Array[Int](4)
    val pre = new Array[Int](4)
    val tmp = new Array[Long](3)
    val emit = if (sink == null) null else new PairEmitter(sink, layer)

    var live = true
    while (live) {
      // maxn: largest unprocessed start time across the four subsets.
      var maxn = Long.MinValue
      var k = 0
      while (k < 4) {
        if (ptr(k) < lists(k).size && lists(k).ts(ptr(k)) > maxn) maxn = lists(k).ts(ptr(k))
        k += 1
      }
      if (maxn == Long.MinValue) live = false
      else {
        if (System.nanoTime() > deadline) throw new BenchTimeout
        // Lemma 2: wedges whose end time exceeds maxn + delta can never
        // again satisfy the duration constraint.
        val bound = Delta.plus(maxn, delta)
        k = 0
        while (k < 4) { idx(k).deleteAbove(bound); pre(k) = ptr(k); k += 1 }
        // Query every wedge whose start time equals maxn, *before* any of
        // them is inserted — equal start times never co-occur in a butterfly.
        k = 0
        while (k < 4) {
          val lst = lists(k)
          var p = ptr(k)
          while (p < lst.size && lst.ts(p) == maxn) {
            val curTa = lst.ta(p)
            if (sink == null) {
              tmp(0) = 0; tmp(1) = 0; tmp(2) = 0
              idx(SamePartner(k)).countCases(curTa, tmp)
              counts(0 ^ layer) += tmp(0)
              counts(1 ^ layer) += tmp(1)
              counts(2 ^ layer) += tmp(2)
              tmp(0) = 0; tmp(1) = 0; tmp(2) = 0
              idx(DiffPartner(k)).countCases(curTa, tmp)
              counts(3 ^ layer) += tmp(0)
              counts(4 ^ layer) += tmp(1)
              counts(5 ^ layer) += tmp(2)
            } else {
              // lists 0 and 2 are forward (A), 1 and 3 backward (D)
              val curFwd = (k & 1) == 0
              emit.aim(curFwd, lst.mid(p), maxn, curTa)
              emit.otherFwd = curFwd; emit.base = 0
              idx(SamePartner(k)).visitCases(curTa)(emit)
              emit.otherFwd = !curFwd; emit.base = 3
              idx(DiffPartner(k)).visitCases(curTa)(emit)
            }
            p += 1
          }
          ptr(k) = p
          k += 1
        }
        // Insert this round's wedges (Insert() keeps each HP array ordered).
        k = 0
        while (k < 4) {
          val lst = lists(k)
          var p = pre(k)
          while (p < ptr(k)) { idx(k).insert(lst.ts(p), lst.ta(p), lst.mid(p)); p += 1 }
          k += 1
        }
      }
    }
  }

  /** The enumeration visitor of one cross, re-aimed at every querying
    * wedge: pairs each visited stored wedge with it and emits both
    * de-normalized back to raw leg order, so instances carry the original
    * (start-leg, end-leg) timestamps. Type is `(base + case) ^ layer`.
    */
  private final class PairEmitter(sink: EnumSink, layer: Int) extends ((Int, Long, Long, Long) => Unit) {
    private var curFwd = false
    private var curMid = 0L
    private var curTs = 0L
    private var curTa = 0L
    var otherFwd = false
    var base = 0

    def aim(fwd: Boolean, mid: Long, ts: Long, ta: Long): Unit = {
      curFwd = fwd; curMid = mid; curTs = ts; curTa = ta
    }

    def apply(c: Int, ots: Long, ota: Long, omid: Long): Unit = {
      val s1 = if (curFwd) curTs else curTa
      val a1 = if (curFwd) curTa else curTs
      val s2 = if (otherFwd) ots else ota
      val a2 = if (otherFwd) ota else ots
      sink.emit((base + c) ^ layer, curMid, s1, a1, omid, s2, a2)
    }
  }
}
