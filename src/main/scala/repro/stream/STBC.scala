package repro.stream

import scala.collection.mutable

import repro.core.{Delta, RankIndex, SetCross, SideBuilder}
import repro.graph.TemporalEdge

/** STBC (Algorithm 7): exact incremental counting of the temporal
  * butterflies that contain one given edge, for single-edge stream updates.
  *
  * The edge's upper endpoint `u` serves as the start-vertex (vertex priority
  * is irrelevant here — every butterfly through the edge must be counted).
  * Butterflies containing `e = (u, v, t)` decompose uniquely into:
  *
  *   - the wedge `u -> v -> w` whose first leg is `e` itself, and
  *   - a wedge `u -> x -> w` through some other middle-vertex `x != v`,
  *
  * so per end-vertex `w` we run one SetCross between the `via-v` set and
  * the merged `via-other` set — the two-wedge-set simplification of § 5.
  * Traversal ranges are compressed to `[t - delta, t + delta]` (and the
  * second hop to `[max(t,t') - delta, min(t,t') + delta]`) via binary
  * search on the time-sorted adjacency queues. The `via-v` legs are
  * collected first, so only end-vertices `v` reaches get a `via-other` set.
  */
object STBC {

  /** Counts (per type) of the temporal butterflies containing `e`. The edge
    * must currently be present in `g`.
    *
    * @throws IllegalArgumentException if an endpoint of `e` is not in `g`
    */
  def countContaining(g: StreamGraph, e: TemporalEdge, delta: Long): Array[Long] = {
    val counts = new Array[Long](6)
    val su = g.endpointSlot(g.upperKey(e.u), e)
    val sv = g.endpointSlot(g.lowerKey(e.v), e)
    val t = e.t
    val lo = Delta.minus(t, delta)
    val hi = Delta.plus(t, delta)

    // end-vertex slot -> (wedges through v with first leg e, wedges through x != v);
    // both sets may span several middle-vertices, which is safe here: the
    // two sides crossed always have disjoint middles
    val byEnd = mutable.HashMap.empty[Int, (SideBuilder, SideBuilder)]
    g.foreachSlotInRange(sv, lo, loStrict = false, hi, hiStrict = false) { (w, t2) =>
      if (w != su && t2 != t)
        byEnd.getOrElseUpdate(w, (new SideBuilder, new SideBuilder))._1.add(t, t2, delta)
    }
    g.foreachSlotInRange(su, lo, loStrict = false, hi, hiStrict = false) { (x, t1) =>
      if (x != sv && t1 != t) {
        val lo2 = Delta.minus(math.max(t, t1), delta)
        val hi2 = Delta.plus(math.min(t, t1), delta)
        g.foreachSlotInRange(x, lo2, loStrict = false, hi2, hiStrict = false) { (w, t2) =>
          // u itself never has an entry
          if (t2 != t && t2 != t1) byEnd.get(w).foreach(_._2.add(t1, t2, delta))
        }
      }
    }

    byEnd.valuesIterator.foreach { case (viaV, viaOther) =>
      if (viaV.nonEmpty && viaOther.nonEmpty)
        // start-vertex is the upper endpoint, so layer = 0
        SetCross.cross(viaV.result(0L), viaOther.result(0L), layer = 0, delta, counts,
          new RankIndex(_), sink = null)
    }
    counts
  }
}
