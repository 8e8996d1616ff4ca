package repro.darc

import org.scalatest.funsuite.AnyFunSuite
import repro.bench.Experiments
import repro.core.{BruteForce, CoverResult, CoverValidator, DirectedGraph, TopDown}
import repro.testkit.TestGraphs

class DarcSpec extends AnyFunSuite {

  /** The source of the G-edge behind line node `e`: the vertex whose
    * out-slice of `g.outAdj` holds position `e`.
    */
  private def lineSrc(g: DirectedGraph, e: Int): Int = (0 until g.n).find(v => e < g.outOff(v + 1)).get

  /** Cover size, a 52-bit SplitMix64 fold of the cover ids, and the
    * `lineArcs`, `searches` and `arcCover` stats.
    */
  private def fingerprint(r: CoverResult): (Int, Long, Long, Long, Long) = {
    var h = 0x1234567L
    r.cover.foreach { id =>
      var x = h ^ id
      x = (x ^ (x >>> 30)) * 0xbf58476d1ce4e5b9L
      x = (x ^ (x >>> 27)) * 0x94d049bb133111ebL
      h = x ^ (x >>> 31)
    }
    (r.size, h & ((1L << 52) - 1), r.stats("lineArcs"), r.stats("searches"), r.stats("arcCover"))
  }

  test("line graph maps edges to line nodes with matching src/dst") {
    val g = TestGraphs.triangle
    val lg = new LineGraph(g)
    assert(lg.size == 3)
    for (e <- 0 until lg.size) {
      assert(g.hasEdge(lineSrc(g, e), lg.eDst(e)))
    }
  }

  test("line arc count equals sum of in(v)*out(v)") {
    val g = TestGraphs.random(20, 80, seed = 1)
    val lg = new LineGraph(g)
    val expected = (0 until g.n).map(v => g.inDeg(v).toLong * g.outDeg(v)).sum
    assert(lg.arcCount == expected)
  }

  test("line out-arcs of a node all start at its dst vertex") {
    val g = TestGraphs.figure1
    val lg = new LineGraph(g)
    for (a <- 0 until lg.size; b <- lg.outLo(a) until lg.outHi(a)) {
      assert(lineSrc(g, b) == lg.eDst(a))
    }
  }

  test("DARC-DV covers the triangle") {
    val res = DarcDV.cover(TestGraphs.triangle, 3)
    assert(res.size >= 1)
    assert(CoverValidator.isValid(TestGraphs.triangle, 3, 3, res.cover))
  }

  test("DARC-DV ignores pure 2-cycles") {
    val res = DarcDV.cover(TestGraphs.twoCycle, 5)
    assert(res.size == 0)
  }

  test("DARC-DV covers figure-1 validly") {
    val res = DarcDV.cover(TestGraphs.figure1, 5)
    assert(CoverValidator.isValid(TestGraphs.figure1, 5, 3, res.cover))
  }

  test("DARC-DV covers are valid on random graphs") {
    for (seed <- 1 to 10; k <- 3 to 5) {
      val g = TestGraphs.random(14, 45, seed)
      val res = DarcDV.cover(g, k)
      assert(CoverValidator.isValid(g, k, 3, res.cover), s"seed=$seed k=$k")
    }
  }

  test("DARC-DV DAG cover is empty") {
    assert(DarcDV.cover(TestGraphs.dag, 6).size == 0)
  }

  test("DARC-DV tends to produce covers at least as large as TDB++ (paper shape)") {
    // Not a per-instance guarantee; aggregate over seeds as the paper does
    // over datasets.
    var darcTotal = 0; var tdbTotal = 0
    for (seed <- 1 to 12) {
      val g = TestGraphs.random(16, 60, seed * 29)
      darcTotal += DarcDV.cover(g, 5).size
      tdbTotal += TopDown.cover(g, 5).size
    }
    assert(darcTotal >= tdbTotal, s"darc=$darcTotal tdb=$tdbTotal")
  }

  test("TooLargeException fires when the arc budget is exceeded") {
    // A hub just over the fixed cap of 1e8 line arcs: d = 10,000 gives
    // 100,010,000 arcs.
    val d = 10000
    val e = intercept[DarcDV.TooLargeException] {
      DarcDV.cover(TestGraphs.hub(d), 5)
    }
    assert(e.arcs == d.toLong * d + d)
  }

  test("TooLargeException fires when the line graph has more arcs than the largest array") {
    // A hub with 46,341 in- and out-neighbours: 46,341² line arcs through
    // the hub plus one through each leaf, more than Int.MaxValue, where an
    // Int arc id would wrap.
    val d = 46341
    val e = intercept[DarcDV.TooLargeException] {
      DarcDV.cover(TestGraphs.hub(d), 5)
    }
    assert(e.arcs == d.toLong * d + d)
  }

  test("DARC-DV result ids are original ids, sorted") {
    val g = TestGraphs.randomSparseIds(14, 50, seed = 7)
    val res = DarcDV.cover(g, 5)
    assert(res.cover.sorted.sameElements(res.cover))
    res.cover.foreach(id => assert(g.ids.contains(id)))
  }

  test("deterministic across runs") {
    val g = TestGraphs.random(16, 60, seed = 13)
    assert(DarcDV.cover(g, 5).cover.toSeq == DarcDV.cover(g, 5).cover.toSeq)
  }

  test("arc cover stat present and bounded by line arc count") {
    val g = TestGraphs.random(14, 50, seed = 19)
    val res = DarcDV.cover(g, 5)
    assert(res.stats("arcCover") <= res.stats("lineArcs"))
  }

  test("minLen=2: DARC-DV also breaks 2-cycles") {
    val res = DarcDV.cover(TestGraphs.twoCycle, 5, minLen = 2)
    assert(res.size >= 1)
    assert(CoverValidator.isValid(TestGraphs.twoCycle, 5, 2, res.cover))
  }

  test("every brute-force cycle is hit by the DARC-DV cover (direct check)") {
    for (seed <- 1 to 6) {
      val g = TestGraphs.random(14, 48, seed * 3)
      val cover = DarcDV.cover(g, 5).cover.toSet
      val cycles = BruteForce.enumerateCycles(g, 5)
      cycles.foreach { c =>
        assert(c.exists(v => cover.contains(g.ids(v))), s"seed=$seed uncovered $c")
      }
    }
  }

  test("DARC-DV covers and stats are pinned on the roster rows, figure-1 and the bow tie") {
    val wkv = Seq(
      (41, 630007308731888L, 16410L, 16538L, 128L),
      (70, 2545240795413455L, 16410L, 16772L, 443L),
      (70, 3412019271860120L, 16410L, 16823L, 740L),
      (71, 992409002276151L, 16410L, 16788L, 822L),
      (71, 4411278900471920L, 16410L, 16744L, 806L))
    val wgo = Seq(
      (37, 3406704400333813L, 9956L, 10015L, 59L),
      (72, 4225760997641380L, 9956L, 10123L, 183L),
      (83, 3485608812230962L, 9956L, 10190L, 364L),
      (84, 3646281030991415L, 9956L, 10190L, 457L),
      (75, 3457260164641471L, 9956L, 10164L, 463L))
    for ((spec, pinned) <- TestGraphs.tinyRoster.zip(Seq(wkv, wgo))) {
      val g = Experiments.loadGraph(spec)
      for ((k, want) <- (3 to 7).zip(pinned))
        assert(fingerprint(DarcDV.cover(g, k)) == want, s"${spec.name} k=$k")
    }
    val one = 703231465136512L; val two = 698786576073463L
    val figure1 = Seq((1, one, 16L, 18L, 2L), (1, one, 16L, 19L, 3L), (1, one, 16L, 19L, 3L),
                      (2, two, 16L, 19L, 3L), (3, 1215459082842215L, 16L, 19L, 3L))
    val bowTie = Seq((1, one, 8L, 10L, 2L), (1, one, 8L, 10L, 2L), (1, one, 8L, 10L, 2L),
                     (2, two, 8L, 10L, 2L), (2, two, 8L, 10L, 2L))
    for ((name, g, pinned) <- Seq(("figure1", TestGraphs.figure1, figure1), ("bowTie", TestGraphs.bowTie, bowTie));
         (k, want) <- (3 to 7).zip(pinned))
      assert(fingerprint(DarcDV.cover(g, k, minLen = 2)) == want, s"$name k=$k")
  }
}
