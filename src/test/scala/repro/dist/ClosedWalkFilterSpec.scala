package repro.dist

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core.BruteForce
import repro.graphgen.CorePeriphery
import repro.testkit.TestGraphs

class ClosedWalkFilterSpec extends SparkSpec {

  private def df(pairs: (Int, Int)*): DataFrame = {
    import spark.implicits._
    pairs.map { case (s, d) => (s.toLong, d.toLong) }.toDF("src", "dst")
  }

  private def candidateSet(edges: DataFrame, k: Int): Set[Long] =
    ClosedWalkFilter.candidates(edges, k).collect().map(_.getLong(0)).toSet

  test("clean removes self-loops and duplicates") {
    val e = df((0, 0), (0, 1), (0, 1), (1, 2))
    assert(ClosedWalkFilter.clean(e).count() == 2)
  }

  test("trim empties a DAG") {
    val e = df((0, 1), (0, 2), (1, 3), (2, 3))
    assert(ClosedWalkFilter.trim(e).count() == 0)
  }

  test("trim keeps a cycle and drops its tail") {
    val e = df((0, 1), (1, 2), (2, 0), (2, 3), (3, 4))
    val t = ClosedWalkFilter.trim(e).collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(t == Set((0L, 1L), (1L, 2L), (2L, 0L)))
  }

  test("candidates of a triangle are all three vertices") {
    assert(candidateSet(df((0, 1), (1, 2), (2, 0)), 3) == Set(0L, 1L, 2L))
  }

  test("candidates respect the hop bound") {
    val cyc5 = df((0, 1), (1, 2), (2, 3), (3, 4), (4, 0))
    assert(candidateSet(cyc5, 5) == Set(0L, 1L, 2L, 3L, 4L))
    assert(candidateSet(cyc5, 4).isEmpty)
  }

  test("2-cycle vertices remain candidates (closed walk of length 2)") {
    assert(candidateSet(df((0, 1), (1, 0)), 5) == Set(0L, 1L))
  }

  test("candidates form a superset of all constrained-cycle vertices (random graphs)") {
    for (seed <- 1 to 5) {
      val g = TestGraphs.random(20, 60, seed)
      val edges = df(g.edgeSeq.map { case (s, d) => (s.toInt, d.toInt) }: _*)
      val k = 5
      val cand = candidateSet(edges, k)
      val onCycle = BruteForce.enumerateCycles(g, k).flatten.map(g.idOf).toSet
      assert(onCycle.subsetOf(cand), s"seed=$seed missing ${onCycle.diff(cand)}")
    }
  }

  test("candidates match the DuckDB recursive-CTE oracle") {
    for (seed <- Seq(2, 9)) {
      val g = TestGraphs.random(18, 55, seed)
      val edges = df(g.edgeSeq.map { case (s, d) => (s.toInt, d.toInt) }: _*)
      val k = 5
      val cand = ClosedWalkFilter.candidates(edges, k).select(col("v").cast("long") as "v")
      Oracle.assertEquivalent(
        cand,
        s"""WITH RECURSIVE reach(root, v, d) AS (
           |  SELECT src, dst, 1 FROM edges
           |  UNION
           |  SELECT r.root, e.dst, r.d + 1
           |  FROM reach r JOIN edges e ON r.v = e.src
           |  WHERE r.d < $k
           |)
           |SELECT DISTINCT root AS v FROM reach WHERE v = root""".stripMargin,
        "edges" -> edges)
    }
  }

  test("coreEdges is the induced subgraph on candidates") {
    val e = df((0, 1), (1, 2), (2, 0), (2, 3), (3, 4)) // triangle + tail
    val core = ClosedWalkFilter.coreEdges(e, 5).collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(core == Set((0L, 1L), (1L, 2L), (2L, 0L)))
  }

  test("coreEdges preserves every constrained cycle") {
    for (seed <- Seq(4, 13)) {
      val g = TestGraphs.random(18, 60, seed)
      val edges = df(g.edgeSeq.map { case (s, d) => (s.toInt, d.toInt) }: _*)
      val k = 5
      val core = ClosedWalkFilter.coreEdges(edges, k).collect()
        .map(r => (r.getLong(0), r.getLong(1)))
      val coreG = repro.core.DirectedGraph.fromEdges(core.toSeq)
      val orig = BruteForce.enumerateCycles(g, k).map(_.map(g.idOf).toSet).toSet
      val kept = BruteForce.enumerateCycles(coreG, k).map(_.map(coreG.idOf).toSet).toSet
      assert(orig == kept, s"seed=$seed")
    }
  }

  test("cycle-enumeration closing count matches brute force and DuckDB") {
    for (seed <- Seq(3, 11)) {
      val g = TestGraphs.random(14, 40, seed)
      val edges = df(g.edgeSeq.map { case (s, d) => (s.toInt, d.toInt) }: _*)
      val k = 5
      val expected = BruteForce.enumerateCycles(g, k).map(_.length.toLong).sum
      assert(CycleEnum.closingCount(edges, k) == expected, s"seed=$seed spark-vs-brute")
      import spark.implicits._
      val sparkCount = Seq(expected).toDF("closings") // already proven equal above
      Oracle.assertEquivalent(
        sparkCount,
        s"""WITH RECURSIVE p(start, cur, path, len) AS (
           |  SELECT src, dst, [src, dst], 1 FROM edges
           |  UNION ALL
           |  SELECT p.start, e.dst, list_append(p.path, e.dst), p.len + 1
           |  FROM p JOIN edges e ON p.cur = e.src
           |  WHERE p.len < $k AND p.cur <> p.start
           |    AND NOT list_contains(p.path[2:], e.dst)
           |)
           |SELECT count(*) AS closings FROM p
           |WHERE cur = start AND len >= 3 AND len <= $k""".stripMargin,
        "edges" -> edges)
    }
  }

  test("closings respects minLen=2 (counts 2-cycles)") {
    val e = df((0, 1), (1, 0))
    assert(CycleEnum.closingCount(e, 5, minLen = 3) == 0)
    assert(CycleEnum.closingCount(e, 5, minLen = 2) == 2) // one 2-cycle, closed twice
  }

  test("candidates of an empty / edgeless input are empty") {
    import spark.implicits._
    val empty = Seq.empty[(Long, Long)].toDF("src", "dst")
    assert(ClosedWalkFilter.candidates(empty, 5).count() == 0)
  }

  test("degree statistics agree with the DuckDB oracle") {
    import spark.implicits._
    // A seeded uniform draw: 800 edges over 200 vertices.
    val edges = CorePeriphery.pairs(CorePeriphery.edges(200, 200, 800, 800, 0.0, 0, seed = 7))
      .toDF("src", "dst")
    val sparkStats = edges.groupBy("src")
      .agg(count(lit(1)) as "outdeg")
      .agg(count(lit(1)) as "n_sources",
           sum("outdeg").cast("double") as "total_edges",
           max("outdeg").cast("double") as "max_outdeg")
    Oracle.assertEquivalent(
      sparkStats,
      """SELECT count(*) AS n_sources,
        |       CAST(sum(outdeg) AS DOUBLE) AS total_edges,
        |       CAST(max(outdeg) AS DOUBLE) AS max_outdeg
        |FROM (SELECT src, count(*) AS outdeg FROM edges GROUP BY src)""".stripMargin,
      "edges" -> edges)
  }
}
