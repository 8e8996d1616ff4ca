package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.testkit.TestGraphs

class BottomUpSpec extends AnyFunSuite {

  test("triangle: BUR covers with one vertex") {
    val res = BottomUp.cover(TestGraphs.triangle, 3)
    assert(res.size == 1)
    assert(CoverValidator.isValid(TestGraphs.triangle, 3, 3, res.cover))
  }

  test("figure-1: hit-count heuristic converges on the shared hub") {
    // First cycle found through a(=0) seeds H for its vertices; once a is
    // picked (or the per-cycle argmax lands on it) all three cycles die.
    val res = BottomUp.cover(TestGraphs.figure1, 5)
    assert(CoverValidator.isValid(TestGraphs.figure1, 5, 3, res.cover))
  }

  test("BUR covers are valid on random graphs") {
    for (seed <- 1 to 10; k <- 3 to 5) {
      val g = TestGraphs.random(16, 55, seed)
      val res = BottomUp.cover(g, k)
      assert(CoverValidator.isValid(g, k, 3, res.cover), s"seed=$seed k=$k")
    }
  }

  test("BUR+ covers are valid AND minimal on random graphs") {
    for (seed <- 1 to 10; k <- 3 to 5) {
      val g = TestGraphs.random(16, 55, seed)
      val res = BottomUp.cover(g, k, minimalPrune = true)
      assert(CoverValidator.isValid(g, k, 3, res.cover), s"seed=$seed k=$k invalid")
      assert(CoverValidator.isMinimal(g, k, 3, res.cover), s"seed=$seed k=$k non-minimal")
    }
  }

  test("BUR+ never larger than BUR (pruning only removes)") {
    for (seed <- 1 to 10) {
      val g = TestGraphs.random(18, 70, seed * 11)
      val bur = BottomUp.cover(g, 5).size
      val burPlus = BottomUp.cover(g, 5, minimalPrune = true).size
      assert(burPlus <= bur, s"seed=$seed")
    }
  }

  test("prune counter reported in stats") {
    val g = TestGraphs.random(18, 70, seed = 3)
    val res = BottomUp.cover(g, 5, minimalPrune = true)
    assert(res.stats.contains("pruned"))
    assert(res.stats("cyclesFound") >= res.size.toLong)
  }

  test("minLen below 2 is rejected") {
    for (prune <- Seq(false, true); minLen <- Seq(1, 0)) {
      intercept[IllegalArgumentException](
        BottomUp.cover(TestGraphs.triangle, 3, minLen, minimalPrune = prune))
    }
  }

  test("the search budget reaches the BUR and BUR+ cycle search") {
    for (prune <- Seq(false, true)) {
      intercept[SearchBudget.Exceeded](
        BottomUp.cover(TestGraphs.figure1, 5, minimalPrune = prune, budget = new SearchBudget(10)))
    }
  }

  test("DAG: empty cover, zero cycles found") {
    val res = BottomUp.cover(TestGraphs.dag, 6)
    assert(res.size == 0)
    assert(res.stats("cyclesFound") == 0)
  }

  test("2-cycle excluded by default, covered in minLen=2 mode") {
    assert(BottomUp.cover(TestGraphs.twoCycle, 5).size == 0)
    val with2 = BottomUp.cover(TestGraphs.twoCycle, 5, minLen = 2)
    assert(with2.size == 1)
    assert(CoverValidator.isValid(TestGraphs.twoCycle, 5, 2, with2.cover))
  }

  test("minLen=2 covers are valid and BUR+ minimal") {
    for (seed <- 1 to 6) {
      val g = TestGraphs.random(14, 50, seed * 17)
      val res = BottomUp.cover(g, 5, minLen = 2, minimalPrune = true)
      assert(CoverValidator.isValid(g, 5, 2, res.cover))
      assert(CoverValidator.isMinimal(g, 5, 2, res.cover))
    }
  }

  test("deterministic across runs") {
    val g = TestGraphs.random(20, 80, seed = 9)
    val a = BottomUp.cover(g, 5, minimalPrune = true).cover.toSeq
    val b = BottomUp.cover(g, 5, minimalPrune = true).cover.toSeq
    assert(a == b)
  }

  test("hop constraint respected: 5-cycle needs k>=5") {
    val g = TestGraphs.fromPairs((0, 1), (1, 2), (2, 3), (3, 4), (4, 0))
    assert(BottomUp.cover(g, 4).size == 0)
    assert(BottomUp.cover(g, 5).size == 1)
  }

  test("cover ids are original ids") {
    val g = TestGraphs.randomSparseIds(15, 60, seed = 21)
    val res = BottomUp.cover(g, 5, minimalPrune = true)
    res.cover.foreach(id => assert(g.ids.contains(id)))
  }

  test("BUR+ matches brute-force optimal size on small disjoint structures") {
    // two vertex-disjoint triangles: optimum is 2, BUR+ must reach it
    val g = TestGraphs.fromPairs((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3))
    val res = BottomUp.cover(g, 5, minimalPrune = true)
    assert(res.size == 2)
  }
}
