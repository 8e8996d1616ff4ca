package repro.dist

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.BfsFilter

import scala.annotation.tailrec

/** Distributed trim for hop-constrained cycle cover.
  *
  * [[trim]] shrinks a billion-scale graph to its trimmed core, the subgraph
  * that can possibly contain cycles, before the exact Top-Down pass runs:
  * it iteratively deletes vertices with in-degree 0 or out-degree 0 (they
  * lie on no cycle of any length), the classic SCC trim step expressed as
  * DataFrame semi-joins. The k-bounded closed-walk filter is not a Spark
  * pass: TDB++ runs it per vertex on the collected core (Algorithm 11,
  * [[repro.core.BfsFilter]]).
  *
  * Each public call cleans its input once. A trim round lazily
  * `localCheckpoint`s its output, to cut a join lineage whose re-planning
  * cost grows super-linearly, and counts it via `.rdd` (one job fewer than
  * `Dataset.count`) to materialise it and decide to go on.
  */
object ClosedWalkFilter {

  private val MaxTrimRounds = 50

  /** Normalise an edge DataFrame: long src/dst, no self-loops, distinct. */
  def clean(edges: DataFrame): DataFrame =
    edges.select(col("src").cast("long") as "src", col("dst").cast("long") as "dst")
      .filter(col("src") =!= col("dst"))
      .distinct()

  /** Iteratively remove vertices with no in- or no out-edge, for at most
    * [[MaxTrimRounds]] rounds. The result is the induced subgraph of the
    * cleaned input on its own vertex set, even if the cap stops the trim
    * early: a round keeps (u, v) iff u has an in-edge and v an out-edge,
    * i.e. iff u and v both have in- and out-edges. A surviving vertex had
    * both in every round, so an edge between two survivors was never dropped.
    */
  def trim(edges: DataFrame): DataFrame = trimCounted(edges)._1

  /** [[trim]] and its edge count, taken from the last round's count job. */
  private[dist] def trimCounted(edges: DataFrame): (DataFrame, Long) = {
    @tailrec def shrink(cur: DataFrame, n: Long, round: Int): (DataFrame, Long) =
      if (n == 0 || round == MaxTrimRounds) (cur, n)
      else {
        val next = cur
          .join(cur.select(col("dst") as "v"), col("src") === col("v"), "left_semi")
          .join(cur.select(col("src") as "v"), col("dst") === col("v"), "left_semi")
          .localCheckpoint(eager = false)
        val m = next.rdd.count()
        if (m == n) (next, m) else shrink(next, m, round + 1)
      }
    val cleaned = clean(edges).localCheckpoint(eager = false)
    shrink(cleaned, cleaned.rdd.count(), 0)
  }

  /** Vertices lying on a directed closed walk of length in [2, k], k >= 2.
    *
    * Every closed walk lies in the trimmed core, so this collects the core
    * (under [[DistributedTDB]]'s driver-heap guard) and keeps each vertex v
    * whose depth-(k−1) forward BFS reaches an in-neighbour of v. Every
    * vertex of every constrained cycle is kept: the cycle itself is such a
    * walk.
    */
  def candidates(edges: DataFrame, k: Int): DataFrame = {
    val spark = edges.sparkSession
    import spark.implicits._
    val g = DistributedTDB.collectCore(edges)
    val filter = new BfsFilter(g, k)
    val all = Array.fill(g.n)(true)
    (0 until g.n).filter(filter.mayHaveCycle(_, all)).map(g.ids(_)).toDF("v")
  }
}
