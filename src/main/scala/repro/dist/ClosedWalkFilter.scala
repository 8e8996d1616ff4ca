package repro.dist

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import scala.annotation.tailrec

/** Distributed candidate filtering for hop-constrained cycle cover.
  *
  * Two bulk DataFrame passes that shrink a billion-scale graph to its
  * "cyclic core" — the subgraph that can possibly contain constrained
  * cycles — before the exact Top-Down pass runs:
  *
  *  1. [[trim]]: iteratively delete vertices with in-degree 0 or
  *     out-degree 0 (they lie on no cycle of any length). This is the
  *     classic SCC trim step expressed as DataFrame joins.
  *
  *  2. [[candidates]]: k rounds of frontier-expansion joins computing, for
  *     every surviving vertex v, whether v lies on a directed closed walk
  *     of length ≤ k. Every vertex of every constrained cycle does (the
  *     cycle itself is such a walk), so the result is a SAFE superset of
  *     the vertices the exact algorithm can ever keep — the distributed
  *     analogue of the paper's BFS-filter (Algorithm 11), batched over all
  *     vertices at once.
  *
  * Both passes preserve every constrained cycle: the induced subgraph on
  * `candidates` contains each simple cycle of length ≤ k in full.
  *
  * Each public call cleans its input once. A trim or BFS round lazily
  * `localCheckpoint`s what later steps read, to cut a join lineage whose
  * re-planning cost grows super-linearly, and counts it via `.rdd` (one
  * job fewer than `Dataset.count`) to materialise it and decide to go on.
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
  def trim(edges: DataFrame): DataFrame = {
    @tailrec def shrink(cur: DataFrame, n: Long, round: Int): DataFrame =
      if (n == 0 || round == MaxTrimRounds) cur
      else {
        val next = cur
          .join(cur.select(col("dst") as "v"), col("src") === col("v"), "left_semi")
          .join(cur.select(col("src") as "v"), col("dst") === col("v"), "left_semi")
          .localCheckpoint(eager = false)
        val m = next.rdd.count()
        if (m == n) next else shrink(next, m, round + 1)
      }
    val cleaned = clean(edges).localCheckpoint(eager = false)
    shrink(cleaned, cleaned.rdd.count(), 0)
  }

  /** Vertices lying on a directed closed walk of length in [2, k].
    *
    * Three exact sub-filters, cheapest first, so the expensive per-root
    * BFS only runs for the vertices the cheap passes could not certify:
    *
    *  1. reciprocal pairs (closed walk of length 2): one self-join;
    *  2. triangles (length 3): two bounded joins — in a dense cyclic core
    *     this certifies almost every vertex, avoiding the quadratic
    *     roots × reach blow-up of the BFS pass;
    *  3. per-root BFS batched as DataFrame joins for the remaining roots:
    *     each round extends the newest frontier by one edge and keeps only
    *     the (root, v) pairs no earlier frontier has; a root whose frontier
    *     returns to it is cyclic and leaves. So no vertex repeats.
    */
  def candidates(edges: DataFrame, k: Int): DataFrame = candidatesOf(trim(edges), k)

  /** Induced subgraph of the cleaned `edges` on [[candidates]]: the trimmed
    * edges between two candidates, since [[trim]] keeps an induced subgraph.
    */
  def coreEdges(edges: DataFrame, k: Int): DataFrame = {
    val t = trim(edges)
    val cand = candidatesOf(t, k)
    t.join(cand, col("src") === col("v"), "left_semi")
      .join(cand, col("dst") === col("v"), "left_semi")
  }

  private def candidatesOf(trimmed: DataFrame, k: Int): DataFrame = {
    val e = trimmed.select(col("src") as "esrc", col("dst") as "edst")

    // 1. reciprocal pairs: edge (u,v) with twin (v,u)
    val flipped = e.select(col("edst") as "esrc", col("esrc") as "edst")
    val onPair = e.intersect(flipped).select(col("esrc") as "v")

    // 2. triangles: u -> x -> y -> u (vertices of any 3-closed-walk; with
    // self-loops removed these are genuine triangles, length 3 <= k)
    def onTriangle = {
      val ab = e.select(col("esrc") as "a", col("edst") as "b")
      val bc = e.select(col("esrc") as "b", col("edst") as "c")
      val ca = e.select(col("esrc") as "c", col("edst") as "a")
      ab.join(bc, "b").join(ca, Seq("c", "a"))
        .select(explode(array(col("a"), col("b"), col("c"))) as "v")
    }
    val certified = (if (k < 3) onPair else onPair.union(onTriangle))
      .distinct().localCheckpoint(eager = false)

    // 3. per-root bounded BFS for everything else; `visited` is the union of the frontiers
    var frontier = e
      .join(certified.withColumnRenamed("v", "esrc"), Seq("esrc"), "left_anti")
      .select(col("esrc") as "root", col("edst") as "v")
      .localCheckpoint(eager = false)
    var visited = frontier
    var cyclic = frontier.select("root").filter(lit(false)) // no self-loops: none after one hop
    var d = 1
    while (d < k && frontier.rdd.count() > 0) {
      val grown = frontier
        .join(e, col("v") === col("esrc"))
        .select(col("root"), col("edst") as "v")
        .distinct()
        .localCheckpoint(eager = false) // read twice below
      cyclic = cyclic.union(grown.filter(col("root") === col("v")).select("root"))
        .localCheckpoint(eager = false)
      d += 1
      if (d < k) { // the last round's frontier would never grow
        frontier = grown
          .join(visited, Seq("root", "v"), "left_anti")   // only newly reached pairs
          .join(cyclic, Seq("root"), "left_anti")          // cyclic roots are settled
          .localCheckpoint(eager = false)
        visited = visited.union(frontier)
      }
    }
    certified.union(cyclic.select(col("root") as "v"))
  }
}
