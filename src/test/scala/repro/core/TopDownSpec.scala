package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.testkit.TestGraphs

class TopDownSpec extends AnyFunSuite {

  private val variants = Seq(TopDown.TDB, TopDown.TDBPlus, TopDown.TDBPlusPlus)

  private def checkCover(g: DirectedGraph, k: Int, minLen: Int = 3): Unit = {
    for (variant <- variants) {
      val res = TopDown.cover(g, k, minLen, variant)
      assert(CoverValidator.isValid(g, k, minLen, res.cover), s"$variant invalid, k=$k")
      assert(CoverValidator.isMinimal(g, k, minLen, res.cover), s"$variant non-minimal, k=$k")
    }
  }

  test("triangle: cover is a single vertex") {
    val res = TopDown.cover(TestGraphs.triangle, 3)
    assert(res.size == 1)
    checkCover(TestGraphs.triangle, 3)
  }

  test("figure-1: the hub vertex a alone covers all three cycles") {
    // Processing order 0..n: vertex 0 (=a) is examined first with D = ∅,
    // so it is NOT kept; subsequent vertices form the minimal cover of the
    // three vertex-disjoint-except-a cycles: one vertex per cycle.
    val res = TopDown.cover(TestGraphs.figure1, 5)
    assert(CoverValidator.isValid(TestGraphs.figure1, 5, 3, res.cover))
    assert(CoverValidator.isMinimal(TestGraphs.figure1, 5, 3, res.cover))
    assert(res.size == 3) // one vertex per disjoint cycle once a is released
  }

  test("minLen below 2 is rejected") {
    for (variant <- variants; minLen <- Seq(1, 0)) {
      intercept[IllegalArgumentException](TopDown.cover(TestGraphs.triangle, 3, minLen, variant))
    }
  }

  test("DAG: empty cover") {
    for (variant <- variants) {
      assert(TopDown.cover(TestGraphs.dag, 5, 3, variant).size == 0)
    }
  }

  test("2-cycle alone: empty cover at minLen=3") {
    assert(TopDown.cover(TestGraphs.twoCycle, 5).size == 0)
  }

  test("2-cycle alone: cover of size 1 with the 2-cycle variant") {
    val res = TopDown.cover(TestGraphs.twoCycle, 5, minLen = 2)
    assert(res.size == 1)
  }

  test("all three variants produce identical covers (paper Section VII-B)") {
    for (seed <- 1 to 10; k <- 3 to 6) {
      val g = TestGraphs.random(20, 70, seed)
      val covers = variants.map(v => TopDown.cover(g, k, 3, v).cover.toSeq)
      assert(covers.distinct.size == 1, s"seed=$seed k=$k got $covers")
    }
  }

  test("covers are valid and minimal on random graphs") {
    for (seed <- 1 to 8; k <- 3 to 5) {
      checkCover(TestGraphs.random(16, 55, seed * 7), k)
    }
  }

  test("covers are valid and minimal with minLen=2") {
    for (seed <- 1 to 6; k <- 2 to 5) {
      checkCover(TestGraphs.random(16, 55, seed * 13), k, minLen = 2)
    }
  }

  test("with-2-cycles cover is never smaller than the default cover") {
    for (seed <- 1 to 8) {
      val g = TestGraphs.random(20, 80, seed * 3)
      val k = 5
      val no2 = TopDown.cover(g, k, minLen = 3).size
      val with2 = TopDown.cover(g, k, minLen = 2).size
      assert(with2 >= no2, s"seed=$seed")
    }
  }

  test("cover is valid at every k from 3 to 6") {
    // A minimal cover need not grow with k vertex-wise, so this checks only
    // that each k's cover breaks every cycle of length 3..k.
    val g = TestGraphs.random(22, 90, seed = 77)
    for (k <- 3 to 6) {
      val res = TopDown.cover(g, k)
      assert(CoverValidator.isValid(g, k, 3, res.cover), s"k=$k")
    }
  }

  test("deterministic: same graph, same cover") {
    val g = TestGraphs.random(25, 100, seed = 5)
    val a = TopDown.cover(g, 5).cover.toSeq
    val b = TopDown.cover(g, 5).cover.toSeq
    assert(a == b)
  }

  test("cover ids are original (sparse) ids, sorted ascending") {
    val g = TestGraphs.randomSparseIds(20, 80, seed = 31)
    val res = TopDown.cover(g, 5)
    assert(res.cover.sorted.sameElements(res.cover))
    res.cover.foreach(id => assert(g.ids.contains(id)))
  }

  test("stats expose validation and visit counters") {
    val g = TestGraphs.random(20, 80, seed = 41)
    val res = TopDown.cover(g, 5, 3, TopDown.TDBPlusPlus)
    assert(res.stats.contains("validations"))
    assert(res.stats("bfsCalls") == g.n.toLong)
    assert(res.stats("validations") + res.stats("bfsPruned") == res.stats("bfsCalls"))
  }

  test("TDB++ skips DFS work relative to TDB+ on sparse graphs") {
    val g = TestGraphs.random(60, 100, seed = 51) // sparse: mostly acyclic
    val plus = TopDown.cover(g, 5, 3, TopDown.TDBPlus)
    val pp = TopDown.cover(g, 5, 3, TopDown.TDBPlusPlus)
    assert(pp.stats("validations") <= plus.stats("validations"))
    assert(pp.cover.toSeq == plus.cover.toSeq)
  }

  test("k below minLen is rejected") {
    intercept[IllegalArgumentException] {
      TopDown.cover(TestGraphs.triangle, 2)
    }
  }

  test("empty graph yields empty cover") {
    val g = DirectedGraph.fromEdges(Seq.empty[(Long, Long)])
    assert(TopDown.cover(g, 5).size == 0)
  }

  test("complete digraph on 5 vertices: cover leaves a cycle-free remainder") {
    val edges = for (i <- 0 until 5; j <- 0 until 5 if i != j) yield (i, j)
    val g = TestGraphs.fromPairs(edges: _*)
    val res = TopDown.cover(g, 5)
    // K5 minus a feedback set for 3..5-cycles: at most 2 vertices can remain
    // pairwise (2-cycles allowed), so the cover has exactly 3 vertices.
    assert(res.size == 3)
    assert(CoverValidator.isValid(g, 5, 3, res.cover))
    assert(CoverValidator.isMinimal(g, 5, 3, res.cover))
  }
}
