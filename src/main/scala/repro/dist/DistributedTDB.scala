package repro.dist

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{CoverResult, DirectedGraph, TopDown}

import scala.collection.immutable.ArraySeq

/** Distributed Top-Down hop-constrained cycle cover.
  *
  * The Spark rendition of the paper's TDB++ for graphs that dwarf a single
  * search process: bulk dataflow shrinks the graph to its trimmed core, the
  * exact minimal-cover pass then runs on the (much smaller) core.
  *
  *  1. DataFrame clean + trim ([[ClosedWalkFilter.trim]]);
  *  2. a guard: the trimmed core's edge count, which the trim's last round
  *     already counted, is capped by the driver heap;
  *  3. collect the core and run sequential TDB++ ([[repro.core.TopDown]])
  *     over it in ascending vertex-id order. TDB++'s per-vertex BFS filter
  *     (Algorithm 11) is the k-bounded closed-walk filter.
  *
  * The result is EXACTLY the cover sequential TDB++ would compute on the
  * full graph (same order): every constrained cycle lies in the trimmed
  * core, an induced subgraph, and a trimmed-away vertex is on no cycle, so
  * its validation would fail anyway and add nothing to the cover —
  * validity and minimality carry over unchanged (tested in
  * DistributedTDBSpec).
  */
object DistributedTDB {

  final case class DistCover(cover: DataFrame, coreVertices: Long, coreEdgeCount: Long,
                             result: CoverResult)

  /** Driver bytes per collected core edge: the `(Long, Long)` tuple and its
    * array slot (40), the builder's edge arrays (two id columns, the encoded
    * edges and both adjacency arrays: 32), and its vertex arrays (id, two
    * offsets and id-table slots at load >= 1/4: at most 64 per vertex).
    * Once the trim has converged every core vertex has an out-edge in the
    * core, so the core has no more vertices than edges. A trim stopped by
    * its round cap can also leave vertices with in-edges only, at most one
    * per edge, so this figure then undercounts by up to 64 bytes per edge.
    */
  private val BytesPerCoreEdge = 136L

  /** Core edges the driver collects into half its heap; the other half is
    * left to Spark and the cover.
    */
  private def heapEdgeLimit: Long = Runtime.getRuntime.maxMemory / 2 / BytesPerCoreEdge

  def cover(spark: SparkSession, edges: DataFrame, k: Int, minLen: Int = 3): DistCover = {
    import spark.implicits._
    CoverResult.requireBounds(k, minLen)
    val g = collectCore(edges)
    val res = TopDown.cover(g, k, minLen, TopDown.TDBPlusPlus)
    DistCover(spark.createDataset(res.cover.toSeq).toDF("v"), g.n, g.m, res)
  }

  /** The trimmed core of `edges` on the driver; fails before collecting it
    * if it has more than `maxCoreEdges` edges.
    */
  private[dist] def collectCore(edges: DataFrame, maxCoreEdges: Long = heapEdgeLimit): DirectedGraph = {
    val spark = edges.sparkSession
    import spark.implicits._
    val (core, m) = ClosedWalkFilter.trimCounted(edges)
    if (m > maxCoreEdges)
      throw new IllegalArgumentException(
        s"trimmed core has $m edges, more than the $maxCoreEdges the driver " +
          s"collects with a ${Runtime.getRuntime.maxMemory >> 20} MB heap " +
          s"($BytesPerCoreEdge bytes per edge in at most half of it); raise -Xmx or shrink the input")
    DirectedGraph.fromEdges(ArraySeq.unsafeWrapArray(core.as[(Long, Long)].collect()))
  }
}
