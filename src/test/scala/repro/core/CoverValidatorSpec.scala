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
    // So is a hop constraint below minLen, which would find no cycle at all.
    for (fast <- Seq(false, true); (k, minLen) <- Seq((2, 3), (1, 2))) {
      intercept[IllegalArgumentException](CoverValidator.isValid(g, k, minLen, Array.empty, fast))
      intercept[IllegalArgumentException](CoverValidator.isMinimal(g, k, minLen, Array.empty, fast))
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

  // The fast checks split the vertex ids (validity) and the cover (minimality)
  // into chunks of at least 64 items, about 64 chunks per check. The graphs
  // below are big enough that every worker sweeps several chunks.

  private val N = 5000
  private val K = 4
  private val FirstChunk = Seq(5, 40, 17, 60)        // all in the first chunk, [0, 79)
  private val LastChunk = Seq(N - 2, N - 20, N - 9)  // all in the last chunk, [4977, 5000)
  private val ThreeChunks = Seq(2600, 4100, 1000)    // smallest vertex 1000, in chunk 12

  /** A random graph on `0 until N` whose vertices 0, N - 1 and those of
    * `planted` have no random edges, plus each planted cycle. So the
    * planted cycles are the only cycles through their vertices, and 0 and
    * N - 1 lie on no cycle at all.
    */
  private def plantedGraph(planted: Seq[Int]*): DirectedGraph = {
    val rnd = new scala.util.Random(7)
    val reserved = planted.flatten.toSet + 0 + (N - 1)
    val edges = Array.newBuilder[(Int, Int)]
    var m = 0
    while (m < 8 * N) {
      val s = 1 + rnd.nextInt(N - 2); val d = 1 + rnd.nextInt(N - 2)
      if (s != d && !reserved(s) && !reserved(d)) { edges += ((s, d)); m += 1 }
    }
    planted.foreach(c => c.indices.foreach(i => edges += ((c(i), c((i + 1) % c.size)))))
    DirectedGraph.fromInternal(N, edges.result())
  }

  private def checkerThreads: Iterable[Thread] = {
    import scala.jdk.CollectionConverters._
    Thread.getAllStackTraces.keySet.asScala.filter(t => t.getName == "cover-check" && t.isAlive)
  }

  /** Both paths' verdicts, after checking that they agree with each other
    * and, for validity, with BruteForce's exhaustive search of G − C.
    */
  private def verdicts(g: DirectedGraph, cover: Array[Long]): (Boolean, Boolean) = {
    val inCover = cover.toSet
    val valid = CoverValidator.isValid(g, K, 3, cover, fast = false)
    assert(valid == !BruteForce.existsConstrainedCycle(g, K, 3, v => !inCover(g.ids(v))))
    assert(CoverValidator.isValid(g, K, 3, cover, fast = true) == valid)
    val minimal = CoverValidator.isMinimal(g, K, 3, cover, fast = false)
    assert(CoverValidator.isMinimal(g, K, 3, cover, fast = true) == minimal)
    assert(checkerThreads.isEmpty)
    (valid, minimal)
  }

  test("parallel checks: a TDB++ cover of a large graph is valid and minimal") {
    val g = plantedGraph(FirstChunk, LastChunk, ThreeChunks)
    val cover = TopDown.cover(g, K, 3).cover
    assert(cover.length > 4 * 64) // several minimality chunks
    assert(verdicts(g, cover) == ((true, true)))
  }

  test("parallel validity finds the one surviving cycle in the first, the last, or across three chunks") {
    for (planted <- Seq(FirstChunk, LastChunk, ThreeChunks)) {
      val g = plantedGraph(planted)
      val cover = TopDown.cover(g, K, 3).cover
      val withoutPlanted = cover.filterNot(id => planted.contains(id.toInt))
      assert(withoutPlanted.length == cover.length - 1, planted)
      assert(!verdicts(g, withoutPlanted)._1, planted)
      assert(verdicts(g, cover)._1, planted)
    }
  }

  test("parallel minimality finds a redundant first or last cover id") {
    val g = plantedGraph(FirstChunk, LastChunk, ThreeChunks)
    val cover = TopDown.cover(g, K, 3).cover
    assert(verdicts(g, cover)._2)
    // 0 and N - 1 lie on no cycle, so each is the only redundant vertex.
    for (padded <- Seq(0L +: cover, cover :+ (N - 1).toLong)) {
      assert(verdicts(g, padded) == ((true, false)), padded.head)
    }
  }

  test("the parallel sweep does exactly the work of one ascending sweep") {
    val g = plantedGraph(FirstChunk, LastChunk, ThreeChunks)
    val cover = TopDown.cover(g, K, 3).cover.toSet
    val allowed = Array.tabulate(g.n)(v => !cover(g.ids(v)))
    // One sweep on one thread: each search sees {u ∈ V − C : u ≥ v}.
    val mask = allowed.clone()
    val filter = new BfsFilter(g, K)
    val blockDfs = new BlockDfsValidator(g, K, 3)
    for (v <- 0 until g.n if mask(v)) {
      assert(!(filter.mayHaveCycle(v, mask) && blockDfs.existsCycleThrough(v, mask)))
      mask(v) = false
    }
    val expected = filter.calls + blockDfs.visits
    for (_ <- 1 to 3) assert(CoverValidator.sweepWork(g, K, 3, allowed) == expected)
    assert(allowed.count(identity) == g.n - cover.size) // the sweep left its input alone
  }

  test("no checker thread outlives a call, on valid and invalid covers") {
    val g = plantedGraph(FirstChunk)
    val valid = TopDown.cover(g, K, 3).cover
    for (cover <- Seq(valid, valid.filterNot(id => FirstChunk.contains(id.toInt)), valid.tail, Array.empty[Long])) {
      CoverValidator.isValid(g, K, 3, cover, fast = true)
      assert(checkerThreads.isEmpty)
      CoverValidator.isMinimal(g, K, 3, cover, fast = true)
      assert(checkerThreads.isEmpty)
    }
  }

  test("a worker exception or an interrupt fails the call and leaves no checker thread") {
    val g = plantedGraph(LastChunk)
    val cover = TopDown.cover(g, K, 3).cover
    // Point the first out-edge of the last vertex of V − C with in- and
    // out-edges, and of the last cover vertex, at a vertex that does not
    // exist, so that a worker's search throws.
    val v = (0 until g.n).reverse.find(v => !cover.contains(g.ids(v)) && g.outDeg(v) > 0 && g.inDeg(v) > 0).get
    val c = java.util.Arrays.binarySearch(g.ids, cover.last)
    g.outAdj(g.outOff(v)) = g.n + 1
    g.outAdj(g.outOff(c)) = g.n + 1
    intercept[ArrayIndexOutOfBoundsException](CoverValidator.isValid(g, K, 3, cover, fast = true))
    assert(checkerThreads.isEmpty)
    intercept[ArrayIndexOutOfBoundsException](CoverValidator.isMinimal(g, K, 3, cover, fast = true))
    assert(checkerThreads.isEmpty)

    val h = plantedGraph(LastChunk)
    for (check <- Seq[() => Boolean](() => CoverValidator.isValid(h, K, 3, cover, fast = true),
                                     () => CoverValidator.isMinimal(h, K, 3, cover, fast = true))) {
      Thread.currentThread.interrupt()
      intercept[InterruptedException](check())
      assert(!Thread.interrupted())
      assert(checkerThreads.isEmpty)
    }
  }
}
