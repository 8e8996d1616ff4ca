package repro.dist

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.bench.Experiments
import repro.core.{CoverValidator, DirectedGraph, TopDown}
import repro.graphgen.CorePeriphery
import repro.testkit.TestGraphs

class DistributedTDBSpec extends SparkSpec {

  private def df(pairs: (Int, Int)*): DataFrame = {
    import spark.implicits._
    pairs.map { case (s, d) => (s.toLong, d.toLong) }.toDF("src", "dst")
  }

  private def toDf(g: DirectedGraph): DataFrame = {
    import spark.implicits._
    g.edgeSeq.toDF("src", "dst")
  }

  private def toDf(edges: Array[Long]): DataFrame = {
    import spark.implicits._
    TestGraphs.pairs(edges).toDF("src", "dst")
  }

  test("distributed cover of a triangle matches sequential TDB++") {
    val res = DistributedTDB.cover(spark, df((0, 1), (1, 2), (2, 0)), k = 3)
    val seq = TopDown.cover(TestGraphs.triangle, 3).cover.toSeq
    assert(res.cover.collect().map(_.getLong(0)).sorted.toSeq == seq)
    assert(res.coreVertices == 3 && res.coreEdgeCount == 3)
  }

  test("distributed cover equals sequential TDB++ on random graphs") {
    for (seed <- Seq(1, 5, 9)) {
      val g = TestGraphs.random(25, 80, seed)
      val k = 5
      val dist = DistributedTDB.cover(spark, toDf(g), k)
        .cover.collect().map(_.getLong(0)).sorted.toSeq
      val seq = TopDown.cover(g, k).cover.toSeq
      assert(dist == seq, s"seed=$seed")
    }
  }

  test("distributed covers are valid and minimal w.r.t. the full graph") {
    for (seed <- Seq(2, 7)) {
      val g = TestGraphs.random(22, 70, seed)
      val k = 5
      val cover = DistributedTDB.cover(spark, toDf(g), k)
        .cover.collect().map(_.getLong(0)).sorted
      assert(CoverValidator.isValid(g, k, 3, cover), s"seed=$seed invalid")
      assert(CoverValidator.isMinimal(g, k, 3, cover), s"seed=$seed non-minimal")
    }
  }

  test("DAG: empty cover, empty core") {
    val res = DistributedTDB.cover(spark, df((0, 1), (1, 2), (0, 2)), k = 5)
    assert(res.cover.count() == 0)
    assert(res.coreEdgeCount == 0)
  }

  test("core is (much) smaller than the input on cycle-sparse graphs") {
    // sparse uniform graph: most of it is acyclic fringe at k=4
    val e = CorePeriphery.edges(n = 3000, nCore = 3000, mCore = 4000, m = 4000, fb = 0.0,
      mRecip = 0, seed = 17)
    val edges = toDf(e)
    val res = DistributedTDB.cover(spark, edges, k = 4)
    assert(res.coreEdgeCount < edges.count() / 2,
      s"core ${res.coreEdgeCount} vs input ${edges.count()}")
    // and the cover it finds is still valid for the full graph
    val g = DirectedGraph.fromEdges(TestGraphs.pairs(e))
    val cover = res.cover.collect().map(_.getLong(0)).sorted
    assert(CoverValidator.isValid(g, 4, 3, cover, fast = true))
  }

  test("maxCoreEdges guard trips") {
    val g = TestGraphs.random(20, 120, seed = 21)
    intercept[IllegalArgumentException] {
      DistributedTDB.collectCore(toDf(g), maxCoreEdges = 1)
    }
  }

  test("the core guard names the heap and the core size") {
    val e = intercept[IllegalArgumentException] {
      DistributedTDB.collectCore(df((0, 1), (1, 2), (2, 0)), maxCoreEdges = 2)
    }
    val heapMb = Runtime.getRuntime.maxMemory >> 20
    assert(e.getMessage.contains("core has 3 edges") &&
      e.getMessage.contains(s"$heapMb MB heap"), e.getMessage)
  }

  test("minLen below 2 and k below minLen fail before any Spark work") {
    // The input has no src/dst columns, so any Spark work on it would fail
    // with an AnalysisException instead.
    val noEdges = spark.emptyDataFrame
    val low = intercept[IllegalArgumentException] {
      DistributedTDB.cover(spark, noEdges, k = 5, minLen = 1)
    }
    assert(low.getMessage.contains("minimum cycle length minLen=1 must be at least 2"),
      low.getMessage)
    val short = intercept[IllegalArgumentException] {
      DistributedTDB.cover(spark, noEdges, k = 2, minLen = 3)
    }
    assert(short.getMessage.contains("hop constraint k=2 below minimum cycle length 3"),
      short.getMessage)
  }

  test("with-2-cycles mode covers 2-cycles end-to-end") {
    val res = DistributedTDB.cover(spark, df((0, 1), (1, 0)), k = 5, minLen = 2)
    assert(res.cover.count() == 1)
    val res3 = DistributedTDB.cover(spark, df((0, 1), (1, 0)), k = 5, minLen = 3)
    assert(res3.cover.count() == 0)
  }

  test("end-to-end on a medium power-law graph: valid cover") {
    // Skewed degrees: a 200-vertex hub core plus a mostly forward periphery.
    val e = CorePeriphery.edges(n = 2000, nCore = 200, mCore = 3000, m = 12000, fb = 0.9,
      mRecip = 0, seed = 23)
    val res = DistributedTDB.cover(spark, toDf(e), k = 4)
    val g = DirectedGraph.fromEdges(TestGraphs.pairs(e))
    val cover = res.cover.collect().map(_.getLong(0)).sorted
    assert(CoverValidator.isValid(g, 4, 3, cover, fast = true))
    assert(CoverValidator.isMinimal(g, 4, 3, cover, fast = true))
  }

  test("the DIST experiment: core and cover of a tiny roster row") {
    val spec = TestGraphs.tinyRoster.minBy(_.m)
    val t = Experiments.dist(spark, Seq(spec))
    assert(t.header == Seq("Name", "|E|", "core |E|", "core %", "cover", "total s"))
    val g = Experiments.loadGraph(spec)
    val Seq(Seq(name, m, core, _, cover, _)) = t.rows
    assert(name == spec.name && m.toInt == g.m && core.toInt <= g.m)
    assert(cover.toInt == TopDown.cover(g, 5).size)
  }
}
