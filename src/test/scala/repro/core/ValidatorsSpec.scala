package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.testkit.TestGraphs

class ValidatorsSpec extends AnyFunSuite {

  private def allTrue(g: DirectedGraph): Array[Boolean] = Array.fill(g.n)(true)

  private def allExcept(g: DirectedGraph, removed: Int*): Array[Boolean] = {
    val mask = allTrue(g)
    removed.foreach(mask(_) = false)
    mask
  }

  private def checkAgreement(g: DirectedGraph, k: Int, minLen: Int = 3): Unit = {
    val plain = new PlainDfsValidator(g, k, minLen)
    val block = new BlockDfsValidator(g, k, minLen)
    val all = allTrue(g)
    for (v <- 0 until g.n) {
      val expected = BruteForce.existsCycleThrough(g, k, minLen, v, _ => true)
      assert(plain.existsCycleThrough(v, all) == expected, s"plain k=$k v=$v")
      assert(block.existsCycleThrough(v, all) == expected, s"block k=$k v=$v")
    }
  }

  test("plain and block validators agree with brute force on the triangle") {
    checkAgreement(TestGraphs.triangle, k = 3)
  }

  test("agreement on the square across k=3..5") {
    for (k <- 3 to 5) checkAgreement(TestGraphs.square, k)
  }

  test("agreement on figure-1 across k=3..6") {
    for (k <- 3 to 6) checkAgreement(TestGraphs.figure1, k)
  }

  test("2-cycle alone: no validator reports a constrained cycle") {
    checkAgreement(TestGraphs.twoCycle, k = 5)
  }

  test("block validator survives the 2-cycle + triangle trap") {
    // Shortest return to 0 is the excluded 2-cycle; the triangle 0-1-2 must
    // still be found and the failed 2-cycle return must not poison blocks.
    val g = TestGraphs.twoCyclePlusTriangle
    for (k <- 3 to 6) checkAgreement(g, k)
  }

  test("2-cycle trap via a detour: block values must not over-prune") {
    // 0->1, 1->0 (2-cycle), 2->1, 0->2: cycle 0->2->1->0 exists (len 3).
    val g = TestGraphs.fromPairs((0, 1), (1, 0), (2, 1), (0, 2))
    for (k <- 3 to 5) checkAgreement(g, k)
  }

  test("failure-bound reuse across branches stays sound") {
    // Two branches into a shared tail that cannot return: blocks set by the
    // first branch must not hide the cycle reachable via the second.
    val g = TestGraphs.fromPairs(
      (0, 1), (1, 3), (0, 2), (2, 3), (3, 4), (4, 5), // long dead tail
      (2, 6), (6, 0))                                  // actual triangle 0-2-6
    for (k <- 3 to 6) checkAgreement(g, k)
  }

  test("agreement on random graphs, k=3..6, minLen=3") {
    for (seed <- 1 to 8; k <- 3 to 6) {
      checkAgreement(TestGraphs.random(15, 45, seed), k)
    }
  }

  test("agreement on random graphs with minLen=2 (with-2-cycles variant)") {
    for (seed <- 1 to 8; k <- 2 to 5) {
      checkAgreement(TestGraphs.random(15, 45, seed), k, minLen = 2)
    }
  }

  test("agreement on denser random graphs") {
    for (seed <- 1 to 4; k <- 3 to 5) {
      checkAgreement(TestGraphs.random(20, 140, seed * 31), k)
    }
  }

  test("agreement on reciprocal-edge-heavy graphs (2-cycle stress), k=3..6") {
    for (seed <- 1 to 12; k <- 3 to 6) {
      checkAgreement(TestGraphs.randomWithReciprocals(12, 30, 0.5, seed), k)
    }
  }

  test("agreement on almost-fully-reciprocal graphs") {
    for (seed <- 1 to 8; k <- 3 to 5) {
      checkAgreement(TestGraphs.randomWithReciprocals(10, 22, 0.9, seed * 7), k)
    }
  }

  test("agreement with minLen=2 on reciprocal-heavy graphs") {
    for (seed <- 1 to 8; k <- 2 to 5) {
      checkAgreement(TestGraphs.randomWithReciprocals(12, 28, 0.5, seed * 3), k, minLen = 2)
    }
  }

  test("validators respect the allowed mask") {
    val g = TestGraphs.bowTie
    val block = new BlockDfsValidator(g, 5)
    val plain = new PlainDfsValidator(g, 5)
    val no1 = allExcept(g, 1)
    assert(block.existsCycleThrough(0, no1))  // 0-3-4 remains
    assert(plain.existsCycleThrough(0, no1))
    val no134 = allExcept(g, 1, 3)
    assert(!block.existsCycleThrough(0, no134))
    assert(!plain.existsCycleThrough(0, no134))
  }

  /** `cycle` is a constrained cycle through `s` inside `mask`: it starts at
    * `s`, its vertices are distinct and allowed, its length is in
    * [minLen, k], and every edge exists, the closing one included.
    */
  private def assertConstrainedCycle(g: DirectedGraph, k: Int, minLen: Int, s: Int,
                                     mask: Array[Boolean], cycle: Array[Int], ctx: String): Unit = {
    val c = cycle.toSeq
    assert(c.head == s, s"cycle $c does not start at $s, $ctx")
    assert(c.distinct.size == c.size, s"cycle $c not simple, $ctx")
    assert(c.forall(mask(_)), s"cycle $c leaves the mask, $ctx")
    assert(c.size >= minLen && c.size <= k, s"cycle $c length out of [$minLen, $k], $ctx")
    c.indices.foreach { i =>
      assert(g.hasEdge(c(i), c((i + 1) % c.size)), s"cycle $c misses an edge, $ctx")
    }
  }

  test("findCycleThrough returns a path starting at s that closes") {
    val g = TestGraphs.figure1
    val c = new PlainDfsValidator(g, 5).findCycleThrough(0, allTrue(g))
    assert(c != null)
    assertConstrainedCycle(g, 5, 3, 0, allTrue(g), c, "figure-1")
  }

  test("kernels agree with brute force under random masks and leave the mask unchanged") {
    // One instance of each kernel per graph, reused across masks, as Top-Down
    // reuses them while its mask changes.
    var oracleHits = 0
    for (seed <- 1 to 10; k <- 3 to 6; minLen <- Seq(2, 3)) {
      val g =
        if (seed % 2 == 0) TestGraphs.random(16, 60, seed)
        else TestGraphs.randomWithReciprocals(14, 40, 0.5, seed)
      val plain = new PlainDfsValidator(g, k, minLen)
      val block = new BlockDfsValidator(g, k, minLen)
      val filter = new BfsFilter(g, k)
      val rnd = new scala.util.Random(seed * 31L + k * 7L + minLen)
      for (trial <- 1 to 5) {
        val mask = Array.fill(g.n)(rnd.nextDouble() < 0.75)
        val before = mask.clone()
        for (v <- 0 until g.n if mask(v)) {
          val ctx = s"seed=$seed k=$k minLen=$minLen trial=$trial v=$v"
          val expected = BruteForce.existsCycleThrough(g, k, minLen, v, mask(_))
          if (expected) oracleHits += 1
          assert(plain.existsCycleThrough(v, mask) == expected, s"plain $ctx")
          val cycle = plain.findCycleThrough(v, mask)
          assert((cycle != null) == expected, s"findCycleThrough $ctx")
          if (cycle != null) assertConstrainedCycle(g, k, minLen, v, mask, cycle, ctx)
          assert(block.existsCycleThrough(v, mask) == expected, s"block $ctx")
          val mayCycle = filter.mayHaveCycle(v, mask)
          assert(mayCycle || !expected, s"filter wrongly pruned $ctx")
          assert(mask.sameElements(before), s"mask modified $ctx")
        }
      }
    }
    assert(oracleHits > 0) // the masks leave cycles to find
  }

  test("block validator is reusable across many sources (stamp reset)") {
    val g = TestGraphs.random(25, 100, seed = 17)
    val block = new BlockDfsValidator(g, 5)
    // run twice over all vertices — second pass must agree with the first
    val all = allTrue(g)
    val first = (0 until g.n).map(v => block.existsCycleThrough(v, all))
    val second = (0 until g.n).map(v => block.existsCycleThrough(v, all))
    assert(first == second)
  }

  test("BFS filter is safe: never prunes a vertex on a constrained cycle") {
    for (seed <- 1 to 10) {
      val g = TestGraphs.random(18, 60, seed)
      val k = 5
      val filter = new BfsFilter(g, k)
      val onCycle = BruteForce.enumerateCycles(g, k).flatten.toSet
      for (v <- 0 until g.n if onCycle.contains(v)) {
        assert(filter.mayHaveCycle(v, allTrue(g)), s"seed=$seed v=$v wrongly pruned")
      }
    }
  }

  test("BFS filter prunes everything in a DAG") {
    val g = TestGraphs.dag
    val filter = new BfsFilter(g, 5)
    for (v <- 0 until g.n) assert(!filter.mayHaveCycle(v, allTrue(g)))
    assert(filter.pruned == g.n)
  }

  test("BFS filter respects the hop bound") {
    val g = TestGraphs.fromPairs((0, 1), (1, 2), (2, 3), (3, 4), (4, 0)) // 5-cycle
    assert(new BfsFilter(g, 5).mayHaveCycle(0, allTrue(g)))
    assert(!new BfsFilter(g, 4).mayHaveCycle(0, allTrue(g)))
  }

  test("BFS filter keeps the 2-cycle-only vertex (conservative, DFS decides)") {
    val g = TestGraphs.twoCycle
    val filter = new BfsFilter(g, 5)
    assert(filter.mayHaveCycle(0, allTrue(g))) // conservative: closed walk exists
    assert(!new BlockDfsValidator(g, 5).existsCycleThrough(0, allTrue(g)))
  }

  test("BFS filter honours the allowed mask") {
    val g = TestGraphs.triangle
    val filter = new BfsFilter(g, 5)
    assert(filter.mayHaveCycle(0, allTrue(g)))
    assert(!filter.mayHaveCycle(0, allExcept(g, 2)))
  }

  test("zero-degree vertices are pruned immediately") {
    val g = TestGraphs.fromPairs((0, 1), (1, 2), (2, 0), (2, 3)) // 3 is a sink
    val filter = new BfsFilter(g, 5)
    assert(!filter.mayHaveCycle(3, allTrue(g)))
  }

  test("validator visit counters increase monotonically") {
    val g = TestGraphs.random(20, 80, seed = 23)
    val block = new BlockDfsValidator(g, 5)
    val v0 = block.visits
    block.existsCycleThrough(0, allTrue(g))
    assert(block.visits >= v0)
  }
}
