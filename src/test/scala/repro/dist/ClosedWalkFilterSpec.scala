package repro.dist

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core.BruteForce
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
      val onCycle = BruteForce.enumerateCycles(g, k).flatten.map(g.ids).toSet
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

  test("trim is an induced subgraph (acyclic tails)") {
    // Chains of 61 edges outlast the trim's round cap (50 rounds), so the
    // trim stops early with chain edges left; chains of 4 edges do not.
    for ((seed, chain) <- Seq((6, 60), (15, 3))) {
      val g = TestGraphs.random(18, 50, seed)
      // A chain into vertex 0 and one out of vertex 1; a self-loop and a
      // duplicate edge exercise the cleaning.
      val into = (100 until 100 + chain).map(v => (v, v + 1)) :+ ((100 + chain, 0))
      val outOf = ((1, 200)) +: (200 until 200 + chain).map(v => (v, v + 1))
      val raw = g.edgeSeq.map { case (s, d) => (s.toInt, d.toInt) } ++ into ++ outOf ++
        Seq((5, 5), into.head)
      val cleaned = raw.collect { case (s, d) if s != d => (s.toLong, d.toLong) }.toSet
      def induced(vs: Set[Long]) = cleaned.filter { case (s, d) => vs(s) && vs(d) }
      def pairs(d: DataFrame) = d.collect().map(r => (r.getLong(0), r.getLong(1))).toSet
      val trimmed = pairs(ClosedWalkFilter.trim(df(raw: _*)))
      assert(trimmed.exists(_._1 >= 100) == (chain > 50), s"seed=$seed: chain edges left")
      assert(trimmed == induced(trimmed.flatMap { case (s, d) => Seq(s, d) }), s"seed=$seed trim")
    }
  }

  test("trim preserves every constrained cycle") {
    for (seed <- Seq(4, 13)) {
      val g = TestGraphs.random(18, 60, seed)
      val edges = df(g.edgeSeq.map { case (s, d) => (s.toInt, d.toInt) }: _*)
      val k = 5
      val core = ClosedWalkFilter.trim(edges).collect()
        .map(r => (r.getLong(0), r.getLong(1)))
      val coreG = repro.core.DirectedGraph.fromEdges(core.toSeq)
      val orig = BruteForce.enumerateCycles(g, k).map(_.map(g.ids).toSet).toSet
      val kept = BruteForce.enumerateCycles(coreG, k).map(_.map(coreG.ids).toSet).toSet
      assert(orig == kept, s"seed=$seed")
    }
  }

  test("candidates of an empty / edgeless input are empty") {
    import spark.implicits._
    val empty = Seq.empty[(Long, Long)].toDF("src", "dst")
    assert(ClosedWalkFilter.candidates(empty, 5).count() == 0)
  }
}
