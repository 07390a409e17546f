package repro.core

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import repro.util.OrderStatTree

/** Index over already-processed wedges inside a SetCross() pass.
  *
  * All stored wedges have a start time strictly greater than the start time
  * of any wedge that will query the index (wedges are processed in
  * wedge-priority-increasing order, i.e. `ts` descending — § 4.2). A query
  * therefore only needs the querying wedge's end time `curTa` to resolve the
  * three coverage cases of Figure 4:
  *
  *   - case c11 (non-overlap): stored `ts  >  curTa`
  *   - case c13 (intersect):   stored `ts  <  curTa < ta`
  *   - case c15 (cover):       stored `ta  <  curTa`
  *
  * Equalities are excluded everywhere — equal timestamps can never appear in
  * a temporal butterfly.
  */
trait WedgeIndex {

  /** Insert a processed wedge (normalized: `ts < ta`). `mid` is carried for
    * enumeration and ignored by counting-only indexes.
    */
  def insert(ts: Long, ta: Long, mid: Long): Unit

  /** Drop every stored wedge with `ta > bound` (Lemma 2: once the duration
    * constraint fails against the current round's minimum start time, the
    * wedge can never participate again — Lemma 3).
    */
  def deleteAbove(bound: Long): Unit

  /** Add the number of stored wedges matching each coverage case versus a
    * querying wedge with end time `curTa` into `out(0..2)`.
    */
  def countCases(curTa: Long, out: Array[Long]): Unit

  /** Visit stored wedges matching each coverage case (for enumeration):
    * `f(caseIdx, ts, ta, mid)`.
    */
  def visitCases(curTa: Long)(f: (Int, Long, Long, Long) => Unit): Unit
}

/** The hashmap `HP` of TBC+ (Algorithm 3/4, Table 1): one ordered array of
  * end times per start time. Arrays stay sorted ascending by construction
  * (wedges with equal `ts` arrive in `ta`-ascending order and deletions pop
  * from the back), so case c13/c15 resolve with one binary search per key.
  *
  * Deliberately keeps the paper's cost profile: `deleteAbove` and
  * `countCases` traverse every live key — the per-key `alpha log(n/alpha)`
  * term in TBC+'s complexity and exactly the weakness TBC++ removes.
  */
final class HPIndex(withMids: Boolean) extends WedgeIndex {

  private final class Bucket {
    val ta: ArrayBuffer[Long] = new ArrayBuffer[Long]()
    val mid: ArrayBuffer[Long] = if (withMids) new ArrayBuffer[Long]() else null
    /** first position with ta > x (array ascending) */
    def upperBound(x: Long): Int = {
      var lo = 0; var hi = ta.length
      while (lo < hi) { val m = (lo + hi) >>> 1; if (ta(m) <= x) lo = m + 1 else hi = m }
      lo
    }
    /** first position with ta >= x */
    def lowerBound(x: Long): Int = {
      var lo = 0; var hi = ta.length
      while (lo < hi) { val m = (lo + hi) >>> 1; if (ta(m) < x) lo = m + 1 else hi = m }
      lo
    }
  }

  private val map = mutable.HashMap.empty[Long, Bucket]

  override def insert(ts: Long, ta: Long, mid: Long): Unit = {
    val b = map.getOrElseUpdate(ts, new Bucket)
    b.ta += ta
    if (withMids) b.mid += mid
  }

  override def deleteAbove(bound: Long): Unit = {
    var dead: List[Long] = Nil
    map.foreach { case (ts, b) =>
      var n = b.ta.length
      while (n > 0 && b.ta(n - 1) > bound) {
        b.ta.remove(n - 1)
        if (withMids) b.mid.remove(n - 1)
        n -= 1
      }
      if (n == 0) dead ::= ts
    }
    dead.foreach(map.remove)
  }

  override def countCases(curTa: Long, out: Array[Long]): Unit =
    map.foreach { case (ts, b) =>
      if (ts > curTa) out(0) += b.ta.length
      else if (ts < curTa) {
        val ub = b.upperBound(curTa)   // entries [ub, len) have ta > curTa
        val lb = b.lowerBound(curTa)   // entries [0, lb) have ta < curTa
        out(1) += (b.ta.length - ub)
        out(2) += lb
      }
    }

  override def visitCases(curTa: Long)(f: (Int, Long, Long, Long) => Unit): Unit =
    map.foreach { case (ts, b) =>
      if (ts > curTa) {
        var i = 0
        while (i < b.ta.length) { f(0, ts, b.ta(i), b.mid(i)); i += 1 }
      } else if (ts < curTa) {
        // Range traversal as in TBE+ (Algorithm 5): walk from the back while
        // ta > curTa (intersect), from the front while ta < curTa (cover).
        var i = b.ta.length - 1
        while (i >= 0 && b.ta(i) > curTa) { f(1, ts, b.ta(i), b.mid(i)); i -= 1 }
        i = 0
        while (i < b.ta.length && b.ta(i) < curTa) { f(2, ts, b.ta(i), b.mid(i)); i += 1 }
      }
    }
}

/** The twin balanced trees `TA`/`TS` of TBC++ (§ 4.4, Algorithm 6).
  *
  * `taTree` orders wedges by end time, `tsTree` by start time; `byTa` pairs
  * the two so synchronized deletion by maximum `ta` (Lemma 2) can erase the
  * matching `ts` as well. Every operation is O(log n), removing the
  * per-distinct-`ts` traversal that makes HP degrade on high-degree vertices
  * (Figure 8's extreme case).
  *
  * Query resolution (Lemmas 4–7):
  *   - c11 = TS.count(> curTa)
  *   - c13 = TA.count(> curTa) − TS.count(>= curTa)
  *   - c15 = TA.count(< curTa)
  */
final class TreeIndex extends WedgeIndex {

  private val taTree = new OrderStatTree
  private val tsTree = new OrderStatTree
  private val byTa = mutable.HashMap.empty[Long, ArrayBuffer[Long]]

  override def insert(ts: Long, ta: Long, mid: Long): Unit = {
    taTree.insert(ta)
    tsTree.insert(ts)
    byTa.getOrElseUpdate(ta, new ArrayBuffer[Long]()) += ts
  }

  override def deleteAbove(bound: Long): Unit =
    while (taTree.nonEmpty && taTree.maxKey > bound) {
      val ta = taTree.maxKey
      val stack = byTa(ta)
      val ts = stack.remove(stack.length - 1)
      if (stack.isEmpty) byTa.remove(ta)
      taTree.erase(ta)
      tsTree.erase(ts)
    }

  override def countCases(curTa: Long, out: Array[Long]): Unit = {
    out(0) += tsTree.countGreater(curTa)
    out(1) += taTree.countGreater(curTa) - tsTree.countGreaterOrEqual(curTa)
    out(2) += taTree.countLess(curTa)
  }

  override def visitCases(curTa: Long)(f: (Int, Long, Long, Long) => Unit): Unit =
    throw new UnsupportedOperationException(
      "TBC++ is counting-only (the paper defines no TBE++); use HPIndex for enumeration")
}

/** The TBC++ index of one list of a SetCross pass (§ 4.4, Algorithm 6):
  * the twin trees `TA`/`TS` as two Fenwick trees over ranks the list
  * already carries, so every operation stays O(log n) without a node per
  * wedge.
  *
  * SetCross inserts the list's wedges in list order, so the inserted wedges
  * are always the prefix `[0, inserted)`, sorted by `ts` descending.
  *   - `TA` is a Fenwick tree over `ta` ranks (`list.ord`) of the inserted
  *     wedges. It never loses a wedge: every deleted wedge has `ta` above
  *     some earlier bound `maxn' + δ`, which is at least the current
  *     `maxn + δ`, which by Lemma 1 is at least any querying `curTa`. So
  *     the wedges with `ta <= curTa` in `TA` are all live.
  *   - `TS` is a Fenwick tree over list positions that counts deletions.
  *     Deletion by maximum `ta` (Lemma 2) walks `list.ord` down from the
  *     top.
  *
  * Query resolution (Lemmas 4–7), each side of the `curTa` split being one
  * binary search and one prefix sum:
  *   - c11 = live wedges at positions with `ts > curTa`
  *   - c13 = (inserted − TA.count(<= curTa) − deleted) − live with `ts >= curTa`
  *   - c15 = TA.count(< curTa)
  *
  * The `<=`/`>=` forms cost a second search only when a timestamp equals
  * `curTa`. Counting-only, like [[TreeIndex]].
  *
  * @throws IllegalStateException when `insert` is not given the list's next
  *   wedge, or a deletion reaches a wedge never inserted (a list that breaks
  *   Lemma 1)
  */
final class RankIndex(list: WList) extends WedgeIndex {
  private val n = list.size
  private val ts = list.ts
  private val ta = list.ta
  private val ord = list.ord
  private val rankOf: Array[Int] = {
    val r = new Array[Int](n)
    var k = 0
    while (k < n) { r(ord(k)) = k; k += 1 }
    r
  }
  private val taTree = new Array[Int](n + 1) // inserted wedges, by ta rank
  private val tsTree = new Array[Int](n + 1) // deleted wedges, by position
  private var inserted = 0
  private var deleted = 0
  private var top = n - 1 // rank of the largest-ta wedge not yet deleted

  private def add(tree: Array[Int], i: Int): Unit = {
    var k = i + 1
    while (k <= n) { tree(k) += 1; k += k & -k }
  }

  /** Entries of `tree` at `[0, i)`. */
  private def prefix(tree: Array[Int], i: Int): Int = {
    var k = i; var s = 0
    while (k > 0) { s += tree(k); k -= k & -k }
    s
  }

  /** Live wedges among positions `[0, i)`. */
  private def liveBefore(i: Int): Int = if (deleted == 0) i else i - prefix(tsTree, i)

  /** First position in `[0, inserted)` with `ts < x` (`ts <= x` when
    * `orEqual`). Galloping left from `inserted`: the answer lies among the
    * wedges with `ts` near the current round's.
    */
  private def firstTsBelow(x: Long, orEqual: Boolean): Int = {
    var lo = 0; var hi = inserted; var step = 1
    var galloping = true
    while (galloping) {
      val p = hi - step
      if (p < 0) galloping = false
      else if (ts(p) > x || (!orEqual && ts(p) == x)) { lo = p + 1; galloping = false }
      else { hi = p; step <<= 1 }
    }
    while (lo < hi) {
      val m = (lo + hi) >>> 1
      if (ts(m) > x || (!orEqual && ts(m) == x)) lo = m + 1 else hi = m
    }
    lo
  }

  /** First rank with `ta > x` (`ta >= x` when `orEqual`), for `x` no
    * larger than the last deletion bound: every rank above `top` was
    * deleted, so has `ta > x`.
    */
  private def firstTaAbove(x: Long, orEqual: Boolean): Int = {
    var lo = 0; var hi = top + 1
    while (lo < hi) {
      val m = (lo + hi) >>> 1
      val t = ta(ord(m))
      if (t < x || (!orEqual && t == x)) lo = m + 1 else hi = m
    }
    lo
  }

  override def insert(ts: Long, ta: Long, mid: Long): Unit = {
    if (inserted == n || this.ts(inserted) != ts || this.ta(inserted) != ta)
      throw new IllegalStateException(
        s"RankIndex.insert got wedge ($ts, $ta), but the list's next wedge is " +
          (if (inserted == n) "none" else s"(${this.ts(inserted)}, ${this.ta(inserted)}) at position $inserted"))
    add(taTree, rankOf(inserted))
    inserted += 1
  }

  override def deleteAbove(bound: Long): Unit =
    while (top >= 0 && ta(ord(top)) > bound) {
      val p = ord(top)
      if (p >= inserted)
        throw new IllegalStateException(
          s"RankIndex.deleteAbove($bound) reaches wedge (${ts(p)}, ${ta(p)}) at position $p, " +
            "which was never inserted: the list breaks Lemma 1")
      add(tsTree, p)
      deleted += 1
      top -= 1
    }

  override def countCases(curTa: Long, out: Array[Long]): Unit = {
    val tsGt = firstTsBelow(curTa, orEqual = true)
    val liveTsGt = liveBefore(tsGt)
    val liveTsGe =
      if (tsGt < inserted && ts(tsGt) == curTa) liveBefore(firstTsBelow(curTa, orEqual = false)) else liveTsGt
    val taLt = firstTaAbove(curTa, orEqual = true)
    val insTaLt = prefix(taTree, taLt)
    val insTaLe =
      if (taLt <= top && ta(ord(taLt)) == curTa) prefix(taTree, firstTaAbove(curTa, orEqual = false)) else insTaLt
    out(0) += liveTsGt
    out(1) += (inserted - insTaLe - deleted) - liveTsGe
    out(2) += insTaLt
  }

  override def visitCases(curTa: Long)(f: (Int, Long, Long, Long) => Unit): Unit =
    throw new UnsupportedOperationException(
      "TBC++ is counting-only (the paper defines no TBE++); use HPIndex for enumeration")
}
