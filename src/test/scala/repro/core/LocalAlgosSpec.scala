package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.{SparkSpec, TestUtil}
import repro.graph.{Datasets, LocalGraph, SynthBipartite, TemporalEdge}
import repro.sparkdist.SparkButterfly

/** Cross-validates the three counting algorithms against the brute-force
  * reference and against each other over a spread of graph shapes.
  */
class LocalAlgosSpec extends AnyFunSuite {

  private def checkAll(edges: Seq[TemporalEdge], delta: Long, label: String): Unit = {
    val expected = BruteForce.countByType(edges, delta)
    val g = LocalGraph.fromEdges(edges)
    TestUtil.assertCountsEqual(expected, LocalAlgos.tbc(g, delta), s"$label TBC")
    TestUtil.assertCountsEqual(expected, LocalAlgos.tbcPlus(g, delta), s"$label TBC+")
    TestUtil.assertCountsEqual(expected, LocalAlgos.tbcPlusPlus(g, delta), s"$label TBC++")
  }

  test("empty graph counts zero") {
    checkAll(Seq.empty, 100, "empty")
  }

  test("single edge counts zero") {
    checkAll(Seq(TemporalEdge(0, 0, 5)), 100, "single edge")
  }

  test("a wedge is not a butterfly") {
    checkAll(Seq(TemporalEdge(0, 0, 1), TemporalEdge(1, 0, 2)), 100, "wedge")
  }

  for ((name, (tuv, twv, tux, twx), expected) <- Seq(
      ("T0", (1L, 2L, 3L, 4L), 0),
      ("T1", (1L, 3L, 2L, 4L), 1),
      ("T2", (1L, 4L, 2L, 3L), 2),
      ("T3", (1L, 2L, 4L, 3L), 3),
      ("T4", (1L, 3L, 4L, 2L), 4),
      ("T5", (1L, 4L, 3L, 2L), 5)))
    test(s"single butterfly of type $name lands in slot $expected for all algorithms") {
      val edges = TestUtil.singleButterfly(tuv, twv, tux, twx)
      val want = Array.tabulate(6)(i => if (i == expected) 1L else 0L)
      val g = LocalGraph.fromEdges(edges)
      TestUtil.assertCountsEqual(want, BruteForce.countByType(edges, 100), s"$name brute")
      TestUtil.assertCountsEqual(want, LocalAlgos.tbc(g, 100), s"$name TBC")
      TestUtil.assertCountsEqual(want, LocalAlgos.tbcPlus(g, 100), s"$name TBC+")
      TestUtil.assertCountsEqual(want, LocalAlgos.tbcPlusPlus(g, 100), s"$name TBC++")
    }

  test("duration constraint is inclusive: span exactly delta counts") {
    val edges = TestUtil.singleButterfly(1, 2, 3, 11)
    checkAll(edges, 10, "span == delta")
    assert(LocalAlgos.tbc(LocalGraph.fromEdges(edges), 10).sum == 1)
  }

  test("duration constraint: span delta+1 does not count") {
    val edges = TestUtil.singleButterfly(1, 2, 3, 12)
    checkAll(edges, 10, "span == delta+1")
    assert(LocalAlgos.tbc(LocalGraph.fromEdges(edges), 10).sum == 0)
  }

  test("equal timestamps kill the butterfly") {
    val edges = TestUtil.singleButterfly(1, 2, 2, 4)
    checkAll(edges, 100, "equal stamps")
    assert(LocalAlgos.tbcPlusPlus(LocalGraph.fromEdges(edges), 100).sum == 0)
  }

  test("multi-edges between the same pair yield multiple butterflies") {
    // two parallel (u0,l0) edges -> two distinct temporal butterflies
    val edges = TestUtil.singleButterfly(1, 2, 3, 4) :+ TemporalEdge(0, 0, 5)
    checkAll(edges, 100, "parallel edges")
    assert(LocalAlgos.tbcPlusPlus(LocalGraph.fromEdges(edges), 100).sum == 2)
  }

  test("paper example shape: tighter delta removes butterflies") {
    // two butterflies sharing three edges; the wider delta keeps both
    val edges = IndexedSeq(
      TemporalEdge(2, 4, 1), TemporalEdge(3, 4, 6),
      TemporalEdge(2, 5, 11), TemporalEdge(3, 5, 16),
      TemporalEdge(3, 5, 9))
    val wide = BruteForce.countByType(edges, 15).sum
    val tight = BruteForce.countByType(edges, 10).sum
    assert(wide == 2 && tight == 1)
    checkAll(edges, 15, "delta 15")
    checkAll(edges, 10, "delta 10")
  }

  // --- randomized equivalence sweeps over different shapes ---
  for (seed <- 1 to 10)
    test(s"random dense small graph matches brute force (seed $seed)") {
      checkAll(TestUtil.randomEdges(seed, 4, 4, 120, 50), 25, s"dense-$seed")
    }

  for (seed <- 11 to 18)
    test(s"random sparse graph matches brute force (seed $seed)") {
      checkAll(TestUtil.randomEdges(seed, 20, 30, 200, 1000), 200, s"sparse-$seed")
    }

  for (seed <- 19 to 24)
    test(s"random graph with heavy timestamp collisions (seed $seed)") {
      checkAll(TestUtil.randomEdges(seed, 5, 5, 150, 8), 8, s"collide-$seed")
    }

  for (seed <- 25 to 30)
    test(s"skewed star-heavy graph (seed $seed)") {
      // one hub upper vertex: exercises the extreme case of § 4.4
      val rnd = new scala.util.Random(seed)
      val edges = IndexedSeq.fill(180)(TemporalEdge(
        if (rnd.nextInt(3) == 0) rnd.nextInt(6).toLong else 0L,
        rnd.nextInt(12).toLong, rnd.nextInt(300).toLong))
      checkAll(edges, 80, s"star-$seed")
    }

  for (delta <- Seq(1L, 5L, 20L, 100L, 1000000L))
    test(s"delta sweep on one graph (delta=$delta)") {
      checkAll(TestUtil.randomEdges(99, 6, 6, 160, 200), delta, s"delta-$delta")
    }

  test("counts are monotone in delta") {
    val edges = TestUtil.randomEdges(123, 8, 8, 200, 500)
    val g = LocalGraph.fromEdges(edges)
    val sums = Seq(10L, 50L, 100L, 250L, 500L).map(d => LocalAlgos.tbcPlusPlus(g, d).sum)
    assert(sums == sums.sorted)
  }

  test("synthetic catalog graphs at micro scale agree across algorithms") {
    for (spec <- Datasets.all.take(4)) {
      val cfg = spec.cfg.copy(nE = 400, nU = math.min(spec.cfg.nU, 40),
        nL = math.min(spec.cfg.nL, 60), spanDays = 120)
      val edges = SynthBipartite.generate(cfg)
      checkAll(edges, Datasets.DefaultDeltaSeconds, s"catalog-${spec.key}")
    }
  }

  test("deadline aborts long runs with BenchTimeout") {
    val edges = TestUtil.randomEdges(7, 3, 3, 400, 100)
    val g = LocalGraph.fromEdges(edges)
    val past = System.nanoTime() - 1
    val runs: Seq[(String, () => Any)] = Seq(
      "TBC"   -> (() => LocalAlgos.tbc(g, 100, deadline = past)),
      "TBC+"  -> (() => LocalAlgos.tbcPlus(g, 100, deadline = past)),
      "TBC++" -> (() => LocalAlgos.tbcPlusPlus(g, 100, deadline = past)),
      "TBE"   -> (() => LocalAlgos.tbe(g, 100, collect = false, deadline = past)),
      "TBE+"  -> (() => LocalAlgos.tbePlus(g, 100, collect = false, deadline = past)))
    for ((name, run) <- runs)
      withClue(s"$name: ") { intercept[BenchTimeout](run()) }
  }

  test("Variant.byName resolves every variant and rejects an unknown name") {
    Variant.all.foreach(v => assert(Variant.byName(v.name) == v))
    val e = intercept[IllegalArgumentException](Variant.byName("plsu"))
    assert(e.getMessage.contains("plsu"))
    Variant.all.foreach(v => assert(e.getMessage.contains(v.name)))
  }

  // Butterfly (0,0,T+1), (1,0,T+2), (0,1,T+3), (1,1,T+4) of type T0; the
  // fifth edge adds no butterfly. Far-from-zero timestamps make t + delta
  // overflow at delta = Long.MaxValue unless the bounds saturate.
  private val T = 1000000L
  private val maxDeltaGraphs = Seq(
    "one butterfly" -> TestUtil.singleButterfly(T + 1, T + 2, T + 3, T + 4),
    "one butterfly and a pendant edge" -> (TestUtil.singleButterfly(T + 1, T + 2, T + 3, T + 4) :+
      TemporalEdge(2, 2, T + 5)))

  for ((name, edges) <- maxDeltaGraphs)
    test(s"delta = Long.MaxValue counts like brute force: $name") {
      val delta = Long.MaxValue
      val want = BruteForce.countByType(edges, delta)
      assert(want.toSeq == Seq(1L, 0L, 0L, 0L, 0L, 0L))
      checkAll(edges, delta, name)
      val (total, instances) = LocalAlgos.tbePlus(LocalGraph.fromEdges(edges), delta)
      assert(total == 1L)
      TestUtil.assertCountsEqual(want, Array.tabulate(6)(i => instances.count(_.btype == i).toLong), s"$name TBE+")
    }

  test("a negative delta is rejected by every counting and enumerating entry point") {
    val edges = TestUtil.singleButterfly(1, 2, 3, 4)
    val g = LocalGraph.fromEdges(edges)
    def rejects(what: String)(run: => Any): Unit = {
      val e = intercept[IllegalArgumentException](run)
      assert(e.getMessage.contains("-1"), s"$what: ${e.getMessage}")
    }
    for (v <- Variant.all) {
      rejects(s"count ${v.name}")(LocalAlgos.count(g, -1, v))
      rejects(s"enumerate ${v.name}")(LocalAlgos.enumerate(g, -1, v, collect = true))
    }
    val df = SparkButterfly.edgesToDF(SparkSpec.shared, edges)
    rejects("SparkButterfly.count")(SparkButterfly.count(df, -1))
    rejects("SparkButterfly.enumerate")(SparkButterfly.enumerate(df, -1))
  }

  test("fromEdges sorts each adjacency by time, multi-edges and equal timestamps included") {
    val rnd = new scala.util.Random(5)
    // 3 x 3 vertices, 120 edges, 10 timestamps: every pair repeats, at equal
    // and at different times
    val edges = IndexedSeq.fill(120)(
      TemporalEdge(rnd.nextInt(3).toLong, rnd.nextInt(3).toLong, rnd.nextInt(10).toLong))
    val g = LocalGraph.fromEdges(edges)
    for (v <- 0 until g.n) {
      val ts = g.adjT(v)
      assert(ts.toSeq == ts.sorted.toSeq, s"vertex $v: ${ts.mkString(",")}")
    }
    // the adjacency still holds exactly the edge list's (neighbour, time) pairs
    val fromAdj = for (a <- 0 until g.nUpper; k <- g.adjN(a).indices)
      yield TemporalEdge(g.origId(a), g.origId(g.adjN(a)(k)), g.adjT(a)(k))
    assert(fromAdj.sortBy(e => (e.u, e.v, e.t)) == edges.sortBy(e => (e.u, e.v, e.t)))
  }

  for (seed <- 31 to 34)
    test(s"TBC++ matches brute force with wedges exactly delta apart (seed $seed)") {
      // with delta = 10, the times 0/10, 1/11 and 10/20 pair up at exactly
      // delta, so second hops end on both inclusive bounds t1 - delta, t1 + delta
      val delta = 10L
      val times = Array(0L, 1L, 5L, 9L, 10L, 11L, 20L)
      val rnd = new scala.util.Random(seed)
      val edges = IndexedSeq.fill(90)(
        TemporalEdge(rnd.nextInt(4).toLong, rnd.nextInt(4).toLong, times(rnd.nextInt(times.length))))
      val want = BruteForce.countByType(edges, delta)
      assert(want.sum > 0)
      TestUtil.assertCountsEqual(want, LocalAlgos.tbcPlusPlus(LocalGraph.fromEdges(edges), delta), s"seed $seed")
      checkAll(edges, delta, s"exact-delta-$seed")
      // the same graph one tick tighter loses the butterflies that need the bound
      val tighter = BruteForce.countByType(edges, delta - 1)
      TestUtil.assertCountsEqual(tighter, LocalAlgos.tbcPlusPlus(LocalGraph.fromEdges(edges), delta - 1), s"seed $seed tighter")
    }
}
