package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.testkit.TestGraphs

class CoverValidatorSpec extends AnyFunSuite {

  test("empty cover of a DAG is valid and minimal") {
    assert(CoverValidator.isValid(TestGraphs.dag, 5, 3, Array.empty))
    assert(CoverValidator.isMinimal(TestGraphs.dag, 5, 3, Array.empty))
  }

  test("empty cover of a triangle is invalid") {
    assert(!CoverValidator.isValid(TestGraphs.triangle, 3, 3, Array.empty))
  }

  test("full cover of a triangle is valid but not minimal") {
    val full = Array(0L, 1L, 2L)
    assert(CoverValidator.isValid(TestGraphs.triangle, 3, 3, full))
    assert(!CoverValidator.isMinimal(TestGraphs.triangle, 3, 3, full))
  }

  test("single-vertex cover of a triangle is valid and minimal") {
    assert(CoverValidator.isValid(TestGraphs.triangle, 3, 3, Array(1L)))
    assert(CoverValidator.isMinimal(TestGraphs.triangle, 3, 3, Array(1L)))
  }

  test("a vertex off every cycle breaks minimality") {
    val g = TestGraphs.fromPairs((0, 1), (1, 2), (2, 0), (2, 3)) // 3 is a sink
    assert(CoverValidator.isValid(g, 5, 3, Array(0L, 3L)))
    assert(!CoverValidator.isMinimal(g, 5, 3, Array(0L, 3L)))
  }

  test("fast and slow paths agree on bowTie covers") {
    val g = TestGraphs.bowTie
    for (cover <- Seq(Array(0L), Array(1L, 3L), Array(1L), Array.empty[Long])) {
      assert(CoverValidator.isValid(g, 5, 3, cover, fast = true) ==
             CoverValidator.isValid(g, 5, 3, cover, fast = false), cover.mkString(","))
    }
  }

  test("validity respects the hop constraint") {
    val g = TestGraphs.fromPairs((0, 1), (1, 2), (2, 3), (3, 4), (4, 0))
    assert(CoverValidator.isValid(g, 4, 3, Array.empty))  // 5-cycle invisible at k=4
    assert(!CoverValidator.isValid(g, 5, 3, Array.empty))
  }

  test("minLen=2 validity counts 2-cycles") {
    val g = TestGraphs.twoCycle
    assert(CoverValidator.isValid(g, 5, 3, Array.empty))
    assert(!CoverValidator.isValid(g, 5, 2, Array.empty))
    assert(CoverValidator.isValid(g, 5, 2, Array(0L)))
  }

  test("cover ids that are not vertices are rejected") {
    val g = TestGraphs.triangle
    for (fast <- Seq(false, true)) {
      intercept[IllegalArgumentException](CoverValidator.isValid(g, 3, 3, Array(7L), fast))
      intercept[IllegalArgumentException](CoverValidator.isMinimal(g, 3, 3, Array(0L, 7L), fast))
    }
  }

  test("minLen below 2 is rejected") {
    val g = TestGraphs.triangle
    for (fast <- Seq(false, true); minLen <- Seq(1, 0)) {
      intercept[IllegalArgumentException](CoverValidator.isValid(g, 3, minLen, Array(0L), fast))
      intercept[IllegalArgumentException](CoverValidator.isMinimal(g, 3, minLen, Array(0L), fast))
    }
  }

  test("isValid fast and slow paths agree with cycle enumeration on random covers") {
    val graphs = (1 to 6).map(seed => TestGraphs.random(14, 45, seed)) ++
      (1 to 4).map(seed => TestGraphs.randomWithReciprocals(12, 30, 0.5, seed))
    val seen = scala.collection.mutable.Set.empty[Boolean]
    for ((g, gi) <- graphs.zipWithIndex; k <- 3 to 6; minLen <- Seq(2, 3)) {
      val rnd = new scala.util.Random(gi * 31L + k * 7L + minLen)
      val cycles = BruteForce.enumerateCycles(g, k, minLen)
      val topDown = TopDown.cover(g, k, minLen).cover
      // Random subsets, a minimal cover, and that cover with any one vertex removed.
      val randomCovers = Seq.fill(6) {
        val p = rnd.nextDouble()
        g.ids.filter(_ => rnd.nextDouble() < p)
      }
      val dropOne = topDown.indices.map(i => topDown.patch(i, Nil, 1))
      for (cover <- randomCovers ++ (topDown +: dropOne)) {
        val inCover = cover.map(id => java.util.Arrays.binarySearch(g.ids, id)).toSet
        val expected = cycles.forall(_.exists(inCover))
        val ctx = s"graph=$gi k=$k minLen=$minLen cover=${cover.mkString(",")}"
        assert(CoverValidator.isValid(g, k, minLen, cover, fast = true) == expected, s"fast $ctx")
        assert(CoverValidator.isValid(g, k, minLen, cover, fast = false) == expected, s"slow $ctx")
        seen += expected
      }
    }
    assert(seen == Set(true, false)) // both outcomes are exercised
  }

  test("isMinimal fast and slow paths agree on random covers") {
    val graphs = Seq(TestGraphs.triangle, TestGraphs.square, TestGraphs.bowTie,
                     TestGraphs.twoCyclePlusTriangle, TestGraphs.figure1) ++
      (1 to 6).map(seed => TestGraphs.random(14, 45, seed)) ++
      (1 to 4).map(seed => TestGraphs.randomWithReciprocals(12, 30, 0.5, seed))
    val seen = scala.collection.mutable.Set.empty[Boolean]
    for ((g, gi) <- graphs.zipWithIndex; k <- 3 to 5; minLen <- Seq(2, 3)) {
      val rnd = new scala.util.Random(gi * 17L + k * 3L + minLen)
      val topDown = TopDown.cover(g, k, minLen).cover
      // Random subsets, a minimal cover, and that cover with extra vertices.
      val randomCovers = Seq.fill(6) {
        val p = rnd.nextDouble()
        g.ids.filter(_ => rnd.nextDouble() < p)
      }
      val padded = (topDown ++ g.ids.filter(_ => rnd.nextDouble() < 0.3)).distinct.sorted
      for (cover <- randomCovers :+ topDown :+ padded) {
        // Oracle with its own predicate per cover vertex, sharing no mask.
        val inCover = cover.map(id => java.util.Arrays.binarySearch(g.ids, id)).toSet
        val expected = inCover.forall(c =>
          BruteForce.existsCycleThrough(g, k, minLen, c, x => !inCover(x) || x == c))
        val ctx = s"graph=$gi k=$k minLen=$minLen cover=${cover.mkString(",")}"
        assert(CoverValidator.isMinimal(g, k, minLen, cover, fast = true) == expected, s"fast $ctx")
        assert(CoverValidator.isMinimal(g, k, minLen, cover, fast = false) == expected, s"slow $ctx")
        seen += expected
      }
    }
    assert(seen == Set(true, false)) // both outcomes are exercised
  }
}
