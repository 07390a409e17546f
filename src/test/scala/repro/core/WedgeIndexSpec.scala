package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** Parity between the index implementations (HP hashmap of TBC+, the twin
  * trees and the Fenwick rank index of TBC++) and unit coverage of the
  * wedge-list machinery.
  */
class WedgeIndexSpec extends AnyFunSuite {

  /** Reference: plain list with linear-scan case counting. */
  private final class RefIndex {
    val items = ArrayBuffer.empty[(Long, Long)]
    def insert(ts: Long, ta: Long): Unit = items += ((ts, ta))
    def deleteAbove(bound: Long): Unit = items.filterInPlace(_._2 <= bound)
    def cases(curTa: Long): (Long, Long, Long) = {
      var c0 = 0L; var c1 = 0L; var c2 = 0L
      items.foreach { case (ts, ta) =>
        if (ts > curTa) c0 += 1
        else if (ts < curTa) {
          if (ta > curTa) c1 += 1
          else if (ta < curTa) c2 += 1
        }
      }
      (c0, c1, c2)
    }
  }

  private def mkIndexes(): Seq[(String, WedgeIndex)] =
    Seq("HP" -> new HPIndex(withMids = false), "Tree" -> new TreeIndex)

  for (seed <- 1 to 8)
    test(s"HPIndex and TreeIndex match the reference (seed $seed)") {
      val rnd = new Random(seed)
      for ((name, idx) <- mkIndexes()) {
        val ref = new RefIndex
        // The SetCross protocol: inserts happen in ts-descending batches,
        // ta ascending within a batch; queries use strictly smaller curTa.
        var curTs = 1000L
        for (_ <- 1 to 300) {
          rnd.nextInt(3) match {
            case 0 =>
              curTs -= 1 + rnd.nextInt(3)
              val tas = Seq.fill(1 + rnd.nextInt(3))(curTs + 1 + rnd.nextInt(40).toLong).sorted
              tas.foreach { ta => idx.insert(curTs, ta, 0L); ref.insert(curTs, ta) }
            case 1 =>
              val bound = curTs + rnd.nextInt(45)
              idx.deleteAbove(bound); ref.deleteAbove(bound)
            case 2 =>
              val curTa = curTs - 1 + rnd.nextInt(45)
              val out = new Array[Long](3)
              idx.countCases(curTa, out)
              val (c0, c1, c2) = ref.cases(curTa)
              assert(out(0) == c0 && out(1) == c1 && out(2) == c2,
                s"$name cases($curTa): got ${out.mkString(",")} want $c0,$c1,$c2")
          }
        }
      }
    }

  test("HPIndex visitCases visits exactly what countCases counts") {
    val rnd = new Random(99)
    val idx = new HPIndex(withMids = true)
    var ts = 500L
    for (_ <- 1 to 60) {
      ts -= 1 + rnd.nextInt(2)
      idx.insert(ts, ts + 1 + rnd.nextInt(30), rnd.nextInt(5).toLong)
    }
    for (curTa <- Seq(470L, 490L, 510L, 530L)) {
      val out = new Array[Long](3)
      idx.countCases(curTa, out)
      val seen = new Array[Long](3)
      idx.visitCases(curTa)((c, _, _, _) => seen(c) += 1)
      assert(out.sameElements(seen), s"curTa=$curTa")
    }
  }

  test("TreeIndex rejects enumeration") {
    intercept[UnsupportedOperationException](new TreeIndex().visitCases(0L)((_, _, _, _) => ()))
  }

  test("WList.sorted orders by wedge priority (ts desc, ta asc)") {
    val buf = ArrayBuffer((3L, 9L), (5L, 7L), (3L, 4L), (5L, 6L), (1L, 2L))
    val w = WList.sorted(buf, 42L)
    assert(w.ts.toSeq == Seq(5L, 5L, 3L, 3L, 1L))
    assert(w.ta.toSeq == Seq(6L, 7L, 4L, 9L, 2L))
    assert(w.mid.forall(_ == 42L))
  }

  test("WList.merge preserves wedge-priority order") {
    val a = WList.sorted(ArrayBuffer((9L, 10L), (5L, 6L), (2L, 8L)), 1L)
    val b = WList.sorted(ArrayBuffer((9L, 11L), (7L, 8L), (2L, 3L)), 2L)
    val m = WList.merge(a, b)
    assert(m.size == 6)
    val pairs = m.ts.zip(m.ta).toSeq
    assert(pairs == Seq((9L, 10L), (9L, 11L), (7L, 8L), (5L, 6L), (2L, 3L), (2L, 8L)))
  }

  test("WList.merge with an empty side returns the other") {
    val a = WList.sorted(ArrayBuffer((4L, 5L)), 1L)
    assert(WList.merge(a, WList.empty) eq a)
    assert(WList.merge(WList.empty, a) eq a)
  }

  test("buildSides applies Lemma 1 pruning and direction split") {
    val wedges = ArrayBuffer(
      (1L, 3L, 8L),   // forward, span 5
      (1L, 8L, 3L),   // backward, span 5
      (1L, 4L, 4L),   // equal stamps -> pruned
      (1L, 0L, 100L), // span > delta -> pruned
      (2L, 6L, 7L))   // second middle
    val sides = LocalCombine.buildSides(wedges, delta = 10L)
    assert(sides.length == 2)
    assert(sides(0).a.size == 1 && sides(0).d.size == 1)
    assert(sides(0).d.ts(0) == 3L && sides(0).d.ta(0) == 8L) // swapped on insert
    assert(sides(1).a.size == 1 && sides(1).d.size == 0)
  }

  test("buildSides on all-pruned input yields no sides") {
    val wedges = ArrayBuffer((1L, 5L, 5L), (2L, 0L, 99L))
    assert(LocalCombine.buildSides(wedges, delta = 3L).isEmpty)
  }

  /** A random priority-sorted list whose wedges obey Lemma 1
    * (`0 < ta - ts <= delta`), with start times in `[0, span)`, so small
    * spans force equal timestamps within and across lists.
    */
  private def randomList(rnd: Random, size: Int, span: Int, delta: Long, mid: Long): WList = {
    val buf = ArrayBuffer.fill(size) {
      val ts = rnd.nextInt(span).toLong
      (ts, ts + 1 + rnd.nextInt(delta.toInt))
    }
    WList.sorted(buf, mid)
  }

  /** Random raw wedges `(mid, s, a)` of one group over a few middles, with
    * colliding timestamps and spans around `delta`.
    */
  private def randomGroup(rnd: Random, size: Int, mids: Int, span: Int): ArrayBuffer[(Long, Long, Long)] =
    ArrayBuffer.fill(size)((rnd.nextInt(mids).toLong, rnd.nextInt(span).toLong, rnd.nextInt(span).toLong))

  /** Runs a [[RankIndex]] and a [[RefIndex]] side by side under SetCross,
    * failing on the first query where they differ; records whether queries
    * met stored wedges with `ts == curTa` or `ta == curTa`.
    */
  private final class CheckedIndex(list: WList, hits: Array[Int]) extends WedgeIndex {
    private val rank = new RankIndex(list)
    private val ref = new RefIndex
    override def insert(ts: Long, ta: Long, mid: Long): Unit = { rank.insert(ts, ta, mid); ref.insert(ts, ta) }
    override def deleteAbove(bound: Long): Unit = { rank.deleteAbove(bound); ref.deleteAbove(bound) }
    override def countCases(curTa: Long, out: Array[Long]): Unit = {
      val got = new Array[Long](3)
      rank.countCases(curTa, got)
      val (c0, c1, c2) = ref.cases(curTa)
      assert(got.toSeq == Seq(c0, c1, c2), s"cases($curTa): got ${got.mkString(",")} want $c0,$c1,$c2")
      if (ref.items.exists(_._1 == curTa)) hits(0) += 1
      if (ref.items.exists(_._2 == curTa)) hits(1) += 1
      for (i <- 0 until 3) out(i) += got(i)
    }
    override def visitCases(curTa: Long)(f: (Int, Long, Long, Long) => Unit): Unit = rank.visitCases(curTa)(f)
  }

  for (seed <- 1 to 6)
    test(s"RankIndex matches the reference under the SetCross protocol (seed $seed)") {
      val rnd = new Random(seed)
      val hits = new Array[Int](2)
      for (_ <- 1 to 40) {
        val delta = 1L + rnd.nextInt(8)
        // span 12: equal ts and equal ta runs, and ts == curTa / ta == curTa
        def side(): Side = new Side(
          randomList(rnd, rnd.nextInt(12), 12, delta, 1L), randomList(rnd, rnd.nextInt(12), 12, delta, 1L))
        val counts = new Array[Long](6)
        SetCross.cross(side(), side(), rnd.nextInt(2), delta, counts, new CheckedIndex(_, hits), sink = null)
      }
      assert(hits(0) > 0 && hits(1) > 0, s"no ts == curTa (${hits(0)}) or ta == curTa (${hits(1)}) collision")
    }

  test("RankIndex rejects an insert that is not the list's next wedge") {
    val idx = new RankIndex(WList.sorted(ArrayBuffer((10L, 12L), (5L, 7L)), 1L))
    val e = intercept[IllegalStateException](idx.insert(5L, 7L, 1L))
    assert(e.getMessage.contains("(5, 7)") && e.getMessage.contains("(10, 12)"))
    idx.insert(10L, 12L, 1L)
    idx.insert(5L, 7L, 1L)
    val past = intercept[IllegalStateException](idx.insert(5L, 7L, 1L))
    assert(past.getMessage.contains("(5, 7)"))
  }

  test("RankIndex rejects a deletion that reaches a wedge never inserted") {
    // (5, 100) spans 95 > delta for the bound 10 + delta = 20, so the
    // list breaks Lemma 1 and the deletion reaches it before its insert
    val idx = new RankIndex(WList.sorted(ArrayBuffer((10L, 11L), (5L, 100L)), 1L))
    idx.insert(10L, 11L, 1L)
    val e = intercept[IllegalStateException](idx.deleteAbove(20L))
    assert(e.getMessage.contains("(5, 100)"))
  }

  test("RankIndex is counting-only") {
    val idx = new RankIndex(WList.empty)
    intercept[UnsupportedOperationException](idx.visitCases(0L)((_, _, _, _) => ()))
  }

  /** `ord` is a permutation of the positions with `ta` ascending. */
  private def assertOrd(w: WList, label: String): Unit = {
    assert(w.ord.sorted.toSeq == (0 until w.size), s"$label: ord is not a permutation")
    for (k <- 1 until w.size)
      assert(w.ta(w.ord(k - 1)) <= w.ta(w.ord(k)), s"$label: ord not ta-sorted at $k")
  }

  test("WList.sorted and WList.merge keep ord a ta-sorted permutation") {
    val rnd = new Random(17)
    for (trial <- 1 to 200) {
      val x = randomList(rnd, rnd.nextInt(40), 15, 6L, 1L)
      val y = randomList(rnd, rnd.nextInt(40), 15, 6L, 2L)
      assertOrd(x, s"sorted $trial")
      val m = WList.merge(x, y)
      assertOrd(m, s"merge $trial")
      assert(m.size == x.size + y.size)
      assert(m.ts.zip(m.ta).toSeq == (x.ts.zip(x.ta) ++ y.ts.zip(y.ta)).sortBy { case (ts, ta) => (-ts, ta) }.toSeq)
    }
    val a = WList.sorted(ArrayBuffer((4L, 9L), (4L, 5L), (3L, 6L)), 1L)
    for ((m, label) <- Seq((WList.merge(a, WList.empty), "a + empty"), (WList.merge(WList.empty, a), "empty + a"),
                           (WList.merge(WList.empty, WList.empty), "empty + empty")))
      assertOrd(m, label)
    assert(WList.empty.ord.isEmpty)
  }

  for (seed <- 1 to 5)
    test(s"recurCount with TreeIndex and HPIndex equals the RankIndex path (seed $seed)") {
      val rnd = new Random(100 + seed)
      for (trial <- 1 to 30) {
        val delta = 1L + rnd.nextInt(10)
        val ws = randomGroup(rnd, 10 + rnd.nextInt(80), 2 + rnd.nextInt(6), 16)
        val layer = rnd.nextInt(2)
        val want = new Array[Long](6)
        LocalCombine.count(ws, layer, delta, Variant.Baseline, want)
        val rank = new Array[Long](6)
        LocalCombine.count(ws, layer, delta, Variant.PlusPlus, rank)
        assert(rank.toSeq == want.toSeq, s"trial $trial: RankIndex vs pairwise")
        for ((name, mk) <- Seq[(String, () => WedgeIndex)](
            "TreeIndex" -> (() => new TreeIndex), "HPIndex" -> (() => new HPIndex(withMids = false)))) {
          val got = new Array[Long](6)
          SetCross.recurCount(LocalCombine.buildSides(ws, delta), layer, delta, got, mk)
          assert(got.toSeq == rank.toSeq, s"trial $trial: $name vs RankIndex")
        }
      }
    }
}
