package repro.sparkdist

import org.apache.spark.sql.{DataFrame, Dataset, Encoder, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import scala.collection.mutable.ArrayBuffer

import repro.core.{Delta, Instance, LocalCombine, SetCross, Variant}
import repro.graph.TemporalEdge

/** Distributed temporal butterfly counting/enumeration on Spark DataFrames.
  *
  * This is the repo's distributed-dataflow adaptation of the paper's
  * algorithms (the paper targets a single multi-core machine; the repro
  * band asks for an edge-partitioned join/aggregate formulation):
  *
  *   1. model the temporal bipartite graph as a DataFrame of edges
  *      `(u, v, t)`;
  *   2. compute the vertex priority of Definition 4 with an aggregate +
  *      rank over (|E(x)|, id);
  *   3. enumerate wedges with one self-join restricted by priority — the
  *      distributed equivalent of Algorithm 2 lines 6–7, including the
  *      Lemma 1 pruning for the optimized variants;
  *   4. group wedges by (start-vertex, end-vertex) and run the paper's
  *      combine phase — the exact same [[LocalCombine]] code as the local
  *      drivers — inside `flatMapGroups`, so the per-group work is the
  *      baseline quadratic pairing, the HP hashmap, or the twin trees
  *      depending on `variant`.
  *
  * Vertices from both layers are folded into one id space (upper `2u`,
  * lower `2v+1`) so a single join covers wedges starting from either layer;
  * the type conversion rule resolves the layer with `start & 1`.
  */
object SparkButterfly {

  final case class WedgeRow(a: Long, w: Long, m: Long, t1: Long, t2: Long)

  def edgesToDF(spark: SparkSession, edges: Seq[TemporalEdge]): DataFrame = {
    import spark.implicits._
    spark.createDataset(edges).toDF()
  }

  /** The wedge DataFrame: one row per temporal wedge whose start-vertex has
    * strictly higher priority than both its middle- and end-vertex.
    */
  def wedges(edges: DataFrame, delta: Long, prune: Boolean): Dataset[WedgeRow] = {
    val spark = edges.sparkSession
    import spark.implicits._

    val he = edges
      .select(($"u" * 2).as("src"), ($"v" * 2 + 1).as("dst"), $"t")
      .union(edges.select(($"v" * 2 + 1).as("src"), ($"u" * 2).as("dst"), $"t"))

    // Vertex priority (Definition 4): dense rank by (degree, id). The global
    // window funnels through one partition — fine at repro scale, and it is
    // the only global step in the pipeline.
    val deg = he.groupBy($"src".as("vid"))
      .agg(org.apache.spark.sql.functions.count(lit(1)).as("deg"))
    val pri = deg.select($"vid", row_number().over(Window.orderBy($"deg", $"vid")).as("pri"))

    val h = he
      .join(pri.select($"vid".as("src"), $"pri".as("psrc")), "src")
      .join(pri.select($"vid".as("dst"), $"pri".as("pdst")), "dst")

    val left  = h.select($"src".as("a"), $"dst".as("m"), $"t".as("t1"),
                         $"psrc".as("pa"), $"pdst".as("pm"))
    val right = h.select($"src".as("m2"), $"dst".as("w"), $"t".as("t2"),
                         $"pdst".as("pw"))

    val joined = left
      .join(right, $"m" === $"m2" && $"pa" > $"pm" && $"pa" > $"pw")
      .select($"a", $"w", $"m", $"t1", $"t2")

    val pruned =
      if (prune) joined.where($"t1" =!= $"t2" && abs($"t2" - $"t1") <= delta)
      else joined
    pruned.as[WedgeRow]
  }

  /** Run `f(start, end, wedges)` inside `flatMapGroups` on every
    * (start-vertex, end-vertex) group of at least two wedges, each group's
    * wedges gathered once into one raw `(mid, s, a)` buffer.
    */
  private def perGroup[T: Encoder](edges: DataFrame, delta: Long, variant: Variant)(
      f: (Long, Long, ArrayBuffer[(Long, Long, Long)]) => Iterator[T]): Dataset[T] = {
    val spark = edges.sparkSession
    import spark.implicits._
    wedges(edges, delta, prune = variant != Variant.Baseline)
      .groupByKey(r => (r.a, r.w))
      .flatMapGroups { (key: (Long, Long), it: Iterator[WedgeRow]) =>
        val buf = new ArrayBuffer[(Long, Long, Long)]()
        it.foreach(r => buf += ((r.m, r.t1, r.t2)))
        if (buf.length < 2) Iterator.empty else f(key._1, key._2, buf)
      }
  }

  /** Exact per-type counts, one slot per butterfly type.
    *
    * @throws IllegalArgumentException if `delta < 0`
    */
  def count(edges: DataFrame, delta: Long, variant: Variant = Variant.PlusPlus): Array[Long] = {
    Delta.check(delta)
    val spark = edges.sparkSession
    import spark.implicits._
    val perType = perGroup(edges, delta, variant) { (a, _, buf) =>
      val counts = new Array[Long](6)
      LocalCombine.count(buf, (a & 1L).toInt, delta, variant, counts)
      Iterator.range(0, 6).map(i => (i, counts(i))).filter(_._2 != 0L)
    }.toDF("btype", "cnt")
      .groupBy($"btype").agg(sum($"cnt").as("cnt"))
      .collect()
    val out = new Array[Long](6)
    perType.foreach(r => out(r.getInt(0)) = r.getLong(1))
    out
  }

  /** Counts as a 6-row DataFrame `(btype, cnt)` for oracle comparison. */
  def countByTypeDF(edges: DataFrame, delta: Long,
                    variant: Variant = Variant.PlusPlus): DataFrame = {
    val spark = edges.sparkSession
    import spark.implicits._
    val c = count(edges, delta, variant)
    c.zipWithIndex.map { case (n, i) => (i, n) }.toSeq.toDF("btype", "cnt")
  }

  /** Distributed enumeration (TBE+ inside each group).
    *
    * @throws IllegalArgumentException if `delta < 0`
    */
  def enumerate(edges: DataFrame, delta: Long,
                variant: Variant = Variant.Plus): Dataset[Instance] = {
    Delta.check(delta)
    val spark = edges.sparkSession
    import spark.implicits._
    perGroup(edges, delta, variant) { (a, w, buf) =>
      val layer = (a & 1L).toInt
      val startOrig = a >> 1
      val endOrig = w >> 1
      val out = new ArrayBuffer[Instance]()
      val sink = new SetCross.EnumSink {
        def emit(btype: Int, mid1: Long, s1: Long, a1: Long,
                 mid2: Long, s2: Long, a2: Long): Unit =
          out += Instance.canonical(btype, layer, startOrig, endOrig,
            mid1 >> 1, mid2 >> 1, s1, a1, s2, a2)
      }
      LocalCombine.enumerate(buf, layer, delta, variant, sink)
      out.iterator
    }
  }
}
