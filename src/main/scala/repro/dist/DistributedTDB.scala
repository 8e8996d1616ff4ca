package repro.dist

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{CoverResult, DirectedGraph, TopDown}

import scala.collection.immutable.ArraySeq

/** Distributed Top-Down hop-constrained cycle cover.
  *
  * The Spark rendition of the paper's TDB++ for graphs that dwarf a single
  * search process: bulk dataflow shrinks the graph to its cyclic core, the
  * exact minimal-cover pass then runs on the (orders-of-magnitude smaller)
  * core.
  *
  *  1. DataFrame trim + k-bounded closed-walk filter
  *     ([[ClosedWalkFilter]], the distributed Algorithm 11),
  *  2. collect the induced core (its edge count capped by the driver
  *     heap) and run sequential TDB++ ([[repro.core.TopDown]]) over it in
  *     ascending vertex-id order; the core's vertex count is that of the
  *     collected graph, so no Spark job counts it.
  *
  * The result is EXACTLY the cover sequential TDB++ would compute on the
  * full graph (same order): filtered-out vertices are on no constrained
  * cycle, so their validation would fail anyway, and no constrained cycle
  * loses a vertex or an edge in the core — validity and minimality carry
  * over unchanged (tested in DistributedTDBSpec).
  */
object DistributedTDB {

  final case class DistCover(cover: DataFrame, coreVertices: Long, coreEdgeCount: Long,
                             result: CoverResult)

  /** Driver bytes per collected core edge: the `(Long, Long)` tuple and its
    * array slot (40), the builder's edge arrays (two id columns, the encoded
    * edges and both adjacency arrays: 32), and its vertex arrays (id, two
    * offsets and id-table slots at load >= 1/4: at most 64 per vertex).
    * Every core vertex lies on a closed walk inside the core, so it has an
    * out-edge there: the core has no more vertices than edges.
    */
  private val BytesPerCoreEdge = 136L

  /** Core edges the driver collects into half its heap; the other half is
    * left to Spark and the cover.
    */
  private def heapEdgeLimit: Long = Runtime.getRuntime.maxMemory / 2 / BytesPerCoreEdge

  def cover(spark: SparkSession, edges: DataFrame, k: Int, minLen: Int = 3,
            maxCoreEdges: Long = heapEdgeLimit): DistCover = {
    import spark.implicits._
    require(minLen >= 2, s"minimum cycle length minLen=$minLen must be at least 2")
    require(k >= minLen, s"hop constraint k=$k below minimum cycle length $minLen")
    val core = ClosedWalkFilter.coreEdges(edges, k).persist()
    val coreEdgeCount = core.count()
    if (coreEdgeCount > maxCoreEdges) {
      core.unpersist()
      throw new IllegalArgumentException(
        s"cyclic core has $coreEdgeCount edges, more than the $maxCoreEdges the driver " +
          s"collects with a ${Runtime.getRuntime.maxMemory >> 20} MB heap " +
          s"($BytesPerCoreEdge bytes per edge in at most half of it); raise -Xmx or shrink k")
    }

    val g = DirectedGraph.fromEdges(ArraySeq.unsafeWrapArray(core.as[(Long, Long)].collect()))
    core.unpersist()
    val res = TopDown.cover(g, k, minLen, TopDown.TDBPlusPlus)
    val coverDf = spark.createDataset(res.cover.toSeq).toDF("v")
    DistCover(coverDf, g.n, coreEdgeCount, res)
  }
}
