package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.testkit.TestGraphs

class BruteForceSpec extends AnyFunSuite {

  test("triangle yields exactly one constrained cycle at k=3") {
    val cycles = BruteForce.enumerateCycles(TestGraphs.triangle, k = 3)
    assert(cycles == Vector(Vector(0, 1, 2)))
  }

  test("triangle yields no cycle when k=2 would be required (k below minLen rejected by callers)") {
    val cycles = BruteForce.enumerateCycles(TestGraphs.triangle, k = 5)
    assert(cycles.size == 1)
  }

  test("square found only when k >= 4") {
    assert(BruteForce.enumerateCycles(TestGraphs.square, k = 3).isEmpty)
    assert(BruteForce.enumerateCycles(TestGraphs.square, k = 4) == Vector(Vector(0, 1, 2, 3)))
  }

  test("2-cycle is not a constrained cycle at minLen=3") {
    assert(BruteForce.enumerateCycles(TestGraphs.twoCycle, k = 5).isEmpty)
  }

  test("2-cycle is found with the minLen=2 variant") {
    val cycles = BruteForce.enumerateCycles(TestGraphs.twoCycle, k = 5, minLen = 2)
    assert(cycles == Vector(Vector(0, 1)))
  }

  test("2-cycle plus triangle: only the triangle counts at minLen=3") {
    val cycles = BruteForce.enumerateCycles(TestGraphs.twoCyclePlusTriangle, k = 5)
    assert(cycles == Vector(Vector(0, 1, 2)))
  }

  test("figure-1 example has 3 constrained cycles at k=5 (hop<=5 as in the paper)") {
    val cycles = BruteForce.enumerateCycles(TestGraphs.figure1, k = 5)
    assert(cycles.size == 3)
    assert(cycles.forall(_.contains(0))) // all pass through vertex a
  }

  test("figure-1 at k=3 excludes the 4-cycle") {
    val cycles = BruteForce.enumerateCycles(TestGraphs.figure1, k = 3)
    assert(cycles.size == 2)
  }

  test("DAG has no cycles for any k") {
    assert(BruteForce.enumerateCycles(TestGraphs.dag, k = 7).isEmpty)
    assert(!BruteForce.existsConstrainedCycle(TestGraphs.dag, 7, 3, _ => true))
  }

  test("each cycle reported exactly once, rotated to smallest vertex") {
    val g = TestGraphs.random(12, 40, seed = 6)
    val cycles = BruteForce.enumerateCycles(g, k = 5)
    assert(cycles.distinct.size == cycles.size)
    cycles.foreach(c => assert(c.head == c.min))
  }

  test("enumerated cycles are genuine simple cycles within the hop bound") {
    val g = TestGraphs.random(14, 50, seed = 7)
    val k = 5
    val cycles = BruteForce.enumerateCycles(g, k)
    cycles.foreach { c =>
      assert(c.length >= 3 && c.length <= k)
      assert(c.distinct.size == c.length, s"not simple: $c")
      c.indices.foreach { i =>
        assert(g.hasEdge(c(i), c((i + 1) % c.length)), s"missing edge in $c")
      }
    }
  }

  test("existsCycleThrough agrees with enumeration membership") {
    val g = TestGraphs.random(12, 45, seed = 8)
    val k = 5
    val onCycle = BruteForce.enumerateCycles(g, k).flatten.toSet
    for (v <- 0 until g.n) {
      assert(BruteForce.existsCycleThrough(g, k, 3, v, _ => true) == onCycle.contains(v),
        s"vertex $v")
    }
  }

  test("allowed mask removes cycles") {
    val g = TestGraphs.bowTie
    // blocking vertex 0 kills both triangles
    assert(!BruteForce.existsConstrainedCycle(g, 5, 3, v => v != 0))
    // blocking vertex 1 leaves the 0-3-4 triangle
    assert(BruteForce.existsConstrainedCycle(g, 5, 3, v => v != 1))
  }

  test("hop constraint is respected: longer cycles invisible at small k") {
    val g = TestGraphs.figure1 // has a 4-cycle 0-5-6-7
    assert(BruteForce.enumerateCycles(g, 4).size == 3)
    assert(BruteForce.enumerateCycles(g, 3).size == 2)
  }
}
