package repro.perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

import repro.core.{LocalCombine, SetCross, TreeIndex, Variant, WedgeIndex}
import repro.graph.{LocalGraph, TemporalEdge}
import repro.stream.{STBCPlus, StreamGraph}

/** Spans recorded by the benchmark around its calls into the library.
  *
  * A span has a name, a start, an end and the span that was open when it
  * began. Boundaries crossed millions of times per pass (one per wedge
  * group, one per index operation) are not kept as spans; the replays add
  * them into [[CoreCounters]] and [[StreamCounters]] instead. Everything
  * stays in memory until [[write]].
  */
final class Tracer {
  import Tracer.Span

  private val origin = System.nanoTime()
  private val spans = ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private var nextId = 0

  def span[A](name: String)(f: => A): A = {
    val id = nextId; nextId += 1
    val parent = open.headOption.getOrElse(-1)
    open = id :: open
    val t0 = System.nanoTime()
    try f
    finally {
      spans += Span(id, parent, name, t0 - origin, System.nanoTime() - origin)
      open = open.tail
    }
  }

  def write(path: Path, header: String): Unit = {
    val sb = new StringBuilder
    sb ++= "{" ++= header ++= ",\"spans\":["
    spans.iterator.zipWithIndex.foreach { case (s, i) =>
      if (i > 0) sb += ','
      sb ++= s"""{"id":${s.id},"parent":${s.parent},"name":"${s.name}","start_ns":${s.startNs},"end_ns":${s.endNs}}"""
    }
    sb ++= "]}\n"
    Files.createDirectories(path.getParent)
    Files.write(path, sb.toString.getBytes(StandardCharsets.UTF_8))
  }
}

object Tracer {
  private final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long)
}

/** Work counts and self times of the `core` layer for one traced pass. */
final class CoreCounters {
  var wedgesEnumerated = 0L // priority-valid wedges seen (Lemma-1 attempts)
  var wedgesKept = 0L       // Lemma-1 survivors
  var groups = 0L           // non-empty (start, end) groups
  var groupMax = 0L         // wedges in the largest group
  var sides = 0L            // per-middle-vertex wedge sets built
  var inserts = 0L
  var deleteCalls = 0L
  var queries = 0L
  var sidesNs = 0L          // LocalCombine.buildSides
  var combineNs = 0L        // SetCross.recurCount, index operations included
  var indexNs = 0L          // inside WedgeIndex operations
  var totalNs = 0L          // the whole pass: enumeration, sides, combine, index
  var enumInstances = 0L
  var enumCombineNs = 0L    // Σ LocalCombine.enumerate
  val counts = new Array[Long](6)
  val enumCounts = new Array[Long](6)

  /** The exact counts of a pass; they must repeat from pass to pass. */
  def exact: Seq[Long] =
    Seq(wedgesEnumerated, wedgesKept, groups, groupMax, sides, inserts, deleteCalls, queries, enumInstances) ++
      counts ++ enumCounts
}

/** A [[TreeIndex]] that counts and times every operation (the TBC++ index). */
final class TimedIndex(c: CoreCounters) extends WedgeIndex {
  private val inner = new TreeIndex

  override def insert(ts: Long, ta: Long, mid: Long): Unit = {
    val t0 = System.nanoTime(); inner.insert(ts, ta, mid); c.indexNs += System.nanoTime() - t0; c.inserts += 1
  }
  override def deleteAbove(bound: Long): Unit = {
    val t0 = System.nanoTime(); inner.deleteAbove(bound); c.indexNs += System.nanoTime() - t0; c.deleteCalls += 1
  }
  override def countCases(curTa: Long, out: Array[Long]): Unit = {
    val t0 = System.nanoTime(); inner.countCases(curTa, out); c.indexNs += System.nanoTime() - t0; c.queries += 1
  }
  override def visitCases(curTa: Long)(f: (Int, Long, Long, Long) => Unit): Unit = inner.visitCases(curTa)(f)
}

/** Re-runs the `core` layer from outside the library, so its time can be
  * split without touching library code: wedge groups are re-enumerated from
  * [[LocalGraph]]'s public arrays exactly as `LocalAlgos` does for TBC++, and
  * each group goes through `LocalCombine.buildSides` and `SetCross.recurCount`
  * with a [[TimedIndex]]. The caller compares the resulting counts with the
  * entry point this mirrors.
  */
object CoreReplay {

  type Group = ArrayBuffer[(Long, Long, Long)]

  /** Wedge groups of one start-vertex, keyed by end-vertex (Lemma 1 applied). */
  def groupsOf(g: LocalGraph, u: Int, delta: Long, c: CoreCounters): mutable.LinkedHashMap[Int, Group] = {
    val h = mutable.LinkedHashMap.empty[Int, Group]
    val pu = g.pri(u)
    val nbrs = g.adjN(u); val times = g.adjT(u)
    var i = 0
    while (i < nbrs.length) {
      val v = nbrs(i); val t1 = times(i)
      if (pu > g.pri(v)) {
        val nbrs2 = g.adjN(v); val times2 = g.adjT(v)
        var j = 0
        while (j < nbrs2.length) {
          val w = nbrs2(j); val t2 = times2(j)
          if (pu > g.pri(w)) {
            c.wedgesEnumerated += 1
            if (t1 != t2 && math.abs(t2 - t1) <= delta) {
              c.wedgesKept += 1
              h.getOrElseUpdate(w, new ArrayBuffer) += ((g.origId(v).toLong, t1, t2))
            }
          }
          j += 1
        }
      }
      i += 1
    }
    h
  }

  /** TBC++ over one (start, end) group, as `LocalCombine.count` runs it. */
  def countGroup(ws: Group, layer: Int, delta: Long, c: CoreCounters): Unit = {
    c.groups += 1
    if (ws.length > c.groupMax) c.groupMax = ws.length
    if (ws.length > 1) {
      val t0 = System.nanoTime()
      val sides = LocalCombine.buildSides(ws, delta)
      val t1 = System.nanoTime()
      c.sidesNs += t1 - t0
      c.sides += sides.length
      if (sides.length > 1) {
        SetCross.recurCount(sides, layer, delta, c.counts, () => new TimedIndex(c))
        c.combineNs += System.nanoTime() - t1
      }
    }
  }

  /** TBE+ over one group with a count-only sink, as `LocalAlgos.tbePlus` runs it. */
  def enumerateGroup(ws: Group, layer: Int, delta: Long, c: CoreCounters): Unit =
    if (ws.length > 1) {
      val sink = new SetCross.EnumSink {
        def emit(btype: Int, mid1: Long, s1: Long, a1: Long, mid2: Long, s2: Long, a2: Long): Unit = {
          c.enumInstances += 1
          c.enumCounts(btype) += 1
        }
      }
      val t0 = System.nanoTime()
      LocalCombine.enumerate(ws, layer, delta, Variant.Plus, sink)
      c.enumCombineNs += System.nanoTime() - t0
    }

  /** Counting pass over the whole graph; `enumerate` adds a TBE+ pass. */
  def run(g: LocalGraph, delta: Long, enumerate: Boolean): CoreCounters = {
    val c = new CoreCounters
    val t0 = System.nanoTime()
    var u = 0
    while (u < g.n) {
      val layer = g.layer(u).toInt
      groupsOf(g, u, delta, c).foreach { case (_, ws) => countGroup(ws, layer, delta, c) }
      u += 1
    }
    c.totalNs = System.nanoTime() - t0
    if (enumerate) {
      val scratch = new CoreCounters
      u = 0
      while (u < g.n) {
        val layer = g.layer(u).toInt
        groupsOf(g, u, delta, scratch).foreach { case (_, ws) => enumerateGroup(ws, layer, delta, c) }
        u += 1
      }
    }
    c
  }
}

/** Work of the `stream` layer for one replayed window run. */
final class StreamCounters {
  var writeNs = 0L       // StreamGraph.insert / delete
  var insertCountNs = 0L // STBCPlus.countExtreme(asMin = false)
  var expireCountNs = 0L // STBCPlus.countExtreme(asMin = true)
  var slides = 0
}

/** Replays `SlidingWindow.run` with STBC+ on one thread, calling
  * `StreamGraph` and `STBCPlus.countExtreme` directly so each can be timed.
  * It follows the same protocol: a stride is inserted and then counted on
  * its maximum edge, the expiring stride is counted on its minimum edge and
  * then deleted. Times cover the slides only, not the first window fill.
  * Returns the per-type counts after every step, first window included.
  */
object StreamReplay {

  def run(edges: IndexedSeq[TemporalEdge], window: Int, stride: Int, delta: Long,
          c: StreamCounters): IndexedSeq[Array[Long]] = {
    val g = new StreamGraph
    val counts = new Array[Long](6)
    val steps = ArrayBuffer.empty[Array[Long]]
    var timing = false
    def timed(f: => Unit): Long = { val t0 = System.nanoTime(); f; System.nanoTime() - t0 }
    def insertRange(lo: Int, hi: Int): Unit = {
      val w = timed { var i = lo; while (i < hi) { g.insert(edges(i)); i += 1 } }
      val k = timed {
        var i = lo
        while (i < hi) { add(counts, STBCPlus.countExtreme(g, edges(i), delta, asMin = false), 1); i += 1 }
      }
      if (timing) { c.writeNs += w; c.insertCountNs += k }
    }
    def deleteRange(lo: Int, hi: Int): Unit = {
      val k = timed {
        var i = lo
        while (i < hi) { add(counts, STBCPlus.countExtreme(g, edges(i), delta, asMin = true), -1); i += 1 }
      }
      val w = timed { var i = lo; while (i < hi) { g.delete(edges(i)); i += 1 } }
      c.writeNs += w; c.expireCountNs += k
    }
    var end = math.min(window, edges.length)
    insertRange(0, end)
    steps += counts.clone()
    timing = true
    var start = 0
    while (end < edges.length) {
      val newEnd = math.min(end + stride, edges.length)
      insertRange(end, newEnd)
      val newStart = start + (newEnd - end)
      deleteRange(start, newStart)
      start = newStart; end = newEnd
      c.slides += 1
      steps += counts.clone()
    }
    steps.toIndexedSeq
  }

  private def add(acc: Array[Long], c: Array[Long], sign: Int): Unit = {
    var i = 0
    while (i < 6) { acc(i) += sign * c(i); i += 1 }
  }
}
