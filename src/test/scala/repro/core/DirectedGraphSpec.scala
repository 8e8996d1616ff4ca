package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import repro.testkit.{ReferenceCsr, TestGraphs}

class DirectedGraphSpec extends AnyFunSuite {

  /** The out- and in-neighbours of `v`, read from its CSR slices. */
  private def outs(g: DirectedGraph, v: Int): Seq[Int] = (g.outOff(v) until g.outOff(v + 1)).map(g.outAdj)
  private def ins(g: DirectedGraph, v: Int): Seq[Int] = (g.inOff(v) until g.inOff(v + 1)).map(g.inAdj)

  test("triangle has 3 vertices and 3 edges") {
    val g = TestGraphs.triangle
    assert(g.n == 3)
    assert(g.m == 3)
  }

  test("self-loops are dropped at construction") {
    val g = DirectedGraph.fromInternal(3, Array((0, 0), (0, 1), (1, 2), (2, 2)))
    assert(g.m == 2)
    assert(!g.hasEdge(0, 0))
  }

  test("parallel edges are deduplicated") {
    val g = DirectedGraph.fromInternal(2, Array((0, 1), (0, 1), (0, 1)))
    assert(g.m == 1)
  }

  test("bidirectional edges are kept as two directed edges") {
    val g = TestGraphs.twoCycle
    assert(g.m == 2)
    assert(g.hasEdge(0, 1) && g.hasEdge(1, 0))
  }

  test("out-degrees and in-degrees match the edge list") {
    val g = TestGraphs.bowTie
    assert(g.outDeg(0) == 2)
    assert(g.inDeg(0) == 2)
    assert(g.outDeg(1) == 1)
    assert(g.inDeg(4) == 1)
  }

  test("the out-CSR slice holds exactly the out-neighbours") {
    val g = TestGraphs.figure1
    assert(outs(g, 0).toSet == Set(1, 3, 5))
  }

  test("the in-CSR slice holds exactly the in-neighbours") {
    val g = TestGraphs.figure1
    assert(ins(g, 0).toSet == Set(2, 4, 7))
  }

  test("hasEdge is consistent with adjacency") {
    val g = TestGraphs.random(30, 120, seed = 1)
    for (u <- 0 until g.n; v <- 0 until g.n) {
      assert(g.hasEdge(u, v) == outs(g, u).contains(v), s"hasEdge($u,$v)")
    }
  }

  test("sparse Long ids are remapped to dense ints, ascending") {
    val g = DirectedGraph.fromEdges(Seq((100L, 7L), (7L, 5000L), (5000L, 100L)))
    assert(g.n == 3)
    assert(g.ids.toSeq == Seq(7L, 100L, 5000L))
    assert(g.ids.sorted.sameElements(g.ids))
  }

  test("edgeSeq round-trips through fromEdges") {
    val g = TestGraphs.randomSparseIds(20, 60, seed = 2)
    val back = DirectedGraph.fromEdges(g.edgeSeq)
    assert(back.n == g.n)
    assert(back.m == g.m)
    assert(back.edgeSeq.toSet == g.edgeSeq.toSet)
  }

  test("in-CSR and out-CSR describe the same edge set") {
    val g = TestGraphs.random(40, 200, seed = 3)
    val fromOut = (0 until g.n).flatMap(v => outs(g, v).map(w => (v, w))).toSet
    val fromIn = (0 until g.n).flatMap(v => ins(g, v).map(w => (w, v))).toSet
    assert(fromOut == fromIn)
  }

  test("empty graph builds and reports zero sizes") {
    val g = DirectedGraph.fromEdges(Seq.empty[(Long, Long)])
    assert(g.n == 0)
    assert(g.m == 0)
  }

  test("single-edge graph") {
    val g = DirectedGraph.fromEdges(Seq((42L, 43L)))
    assert(g.n == 2 && g.m == 1)
    assert(g.outDeg(0) == 1 && g.inDeg(1) == 1)
  }

  test("edge count is stable under re-shuffling input order") {
    val edges = TestGraphs.random(30, 150, seed = 5).edgeSeq
    val shuffled = new scala.util.Random(9).shuffle(edges)
    val g1 = DirectedGraph.fromEdges(edges)
    val g2 = DirectedGraph.fromEdges(shuffled)
    assert(g1.m == g2.m)
    assert(g1.edgeSeq.toSet == g2.edgeSeq.toSet)
  }

  /** Edges over `nIds` ids drawn from small, negative, `>= 2^32` and full
    * 64-bit values: random pairs (some of them self-loops), extra self-loops,
    * repeats of earlier edges, and `Long.MinValue` only on a self-loop. The
    * list is shuffled, or sorted as the generators emit it.
    */
  private def messyEdges(nIds: Int, m: Int, sorted: Boolean, seed: Long): Seq[(Long, Long)] = {
    val rnd = new scala.util.Random(seed)
    val pool = Array.fill(nIds)(rnd.nextInt(4) match {
      case 0 => rnd.nextInt(1000).toLong
      case 1 => -1L - rnd.nextInt(1000)
      case 2 => (1L << 32) + rnd.nextInt(1000)
      case _ => rnd.nextLong()
    })
    def pick(): Long = pool(rnd.nextInt(nIds))
    val pairs = Seq.fill(m)((pick(), pick()))
    val loops = Seq.fill(m / 10) { val v = pick(); (v, v) }
    val all = pairs ++ loops ++ pairs.take(m / 5) :+ ((Long.MinValue, Long.MinValue))
    if (sorted) all.sorted else rnd.shuffle(all)
  }

  private def sameAsReference(edges: Seq[(Long, Long)]): Boolean = {
    val g = DirectedGraph.fromEdges(edges)
    val r = ReferenceCsr.build(edges)
    g.n == r.ids.length && g.ids.sameElements(r.ids) &&
      g.outOff.sameElements(r.outOff) && g.outAdj.sameElements(r.outAdj) &&
      g.inOff.sameElements(r.inOff) && g.inAdj.sameElements(r.inAdj)
  }

  test("property: fromEdges builds the reference CSR arrays element by element") {
    val edgeGen = for {
      nIds <- Gen.choose(1, 600)
      m <- Gen.choose(0, 2000)
      sorted <- Gen.oneOf(false, true)
      seed <- Gen.choose(0L, 1000000L)
    } yield messyEdges(nIds, m, sorted, seed)
    val res = SCTest.check(
      SCTest.Parameters.default.withMinSuccessfulTests(100)
        .withInitialSeed(org.scalacheck.rng.Seed(7L)),
      Prop.forAll(edgeGen)(sameAsReference))
    assert(res.passed, res.status.toString)
    assert(sameAsReference(Seq.empty))
    assert(sameAsReference(Seq((5L, 5L))))
    // 20,001 distinct ids: the id table doubles from 16 slots to 65,536.
    val path = (0 until 20000).map(i => (i * 7919L - 50000L, (i + 1) * 7919L - 50000L))
    assert(sameAsReference(new scala.util.Random(3).shuffle(path)))
  }
}
