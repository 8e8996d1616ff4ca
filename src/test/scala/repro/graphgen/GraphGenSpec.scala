package repro.graphgen

import org.scalatest.funsuite.AnyFunSuite
import repro.bench.Experiments
import repro.core.{DirectedGraph, TopDown}
import repro.testkit.TestGraphs

class GraphGenSpec extends AnyFunSuite {
  import CorePeriphery.{dst, src}

  /** A uniform random digraph: the whole graph is core, nothing is forward. */
  private def uniform(n: Long, m: Long, seed: Long): Array[Long] =
    CorePeriphery.edges(n, nCore = n, mCore = m, m = m, fb = 0.0, mRecip = 0, seed = seed)

  private def graph(edges: Array[Long]): DirectedGraph =
    DirectedGraph.fromEdges(TestGraphs.pairs(edges))

  /** 52-bit SplitMix64 fold of a sorted edge array, the benchmark's
    * `graph.edge_hash`.
    */
  private def hash(edges: Array[Long]): Long = {
    var h = 0x1234567L
    edges.foreach { e =>
      var x = h ^ e
      x = (x ^ (x >>> 30)) * 0xbf58476d1ce4e5b9L
      x = (x ^ (x >>> 27)) * 0x94d049bb133111ebL
      h = x ^ (x >>> 31)
    }
    h & ((1L << 52) - 1)
  }

  test("uniform generator: no self-loops, no duplicate edges, ids in range") {
    val e = uniform(n = 500, m = 2000, seed = 1)
    assert(e.count(x => src(x) == dst(x)) == 0)
    assert(e.length == e.distinct.length)
    val mx = e.map(x => math.max(src(x), dst(x))).max
    val mn = e.map(x => math.min(src(x), dst(x))).min
    assert(mx < 500 && mn >= 0)
  }

  test("different seeds give different graphs") {
    val a = uniform(300, 1000, seed = 5).toSet
    val b = uniform(300, 1000, seed = 6).toSet
    assert(a != b)
  }

  test("uniform generator hits roughly the requested edge count") {
    val m = uniform(2000, 5000, seed = 2).length
    assert(m > 4700 && m <= 5000) // dedup removes only a few collisions
  }

  test("power-law generator: no self-loops, valid range") {
    // The skewed shape is a small core of hubs that takes a quarter of the
    // edges and 15 % of the rest.
    val e = CorePeriphery.edges(n = 1000, nCore = 50, mCore = 2000, m = 8000, fb = 0.0,
      mRecip = 0, seed = 4)
    assert(e.count(x => src(x) == dst(x)) == 0)
    assert(!e.exists(x => src(x) < 0 || src(x) >= 1000 || dst(x) < 0 || dst(x) >= 1000))
  }

  test("corePeriphery: deterministic, no self-loops, ids in range") {
    val a = CorePeriphery.edges(n = 2000, nCore = 300, mCore = 3000, m = 11000, fb = 0.9,
      mRecip = 0, seed = 4)
    val b = CorePeriphery.edges(n = 2000, nCore = 300, mCore = 3000, m = 11000, fb = 0.9,
      mRecip = 0, seed = 4)
    assert(a.sameElements(b))
    assert(a.forall { e =>
      val s = src(e); val d = dst(e)
      s >= 0 && s < 2000 && d >= 0 && d < 2000 && s != d
    })
  }

  test("corePeriphery: a dense cyclic core exists (cycle cover is non-trivial)") {
    val g = graph(CorePeriphery.edges(n = 1000, nCore = 150, mCore = 2500, m = 6500, fb = 0.9,
      mRecip = 0, seed = 5))
    val cover = TopDown.cover(g, 5)
    assert(cover.size > 20, s"expected a forced core cover, got ${cover.size}")
    assert(cover.size < g.n / 2)
  }

  test("corePeriphery: periphery is mostly forward (few short periphery cycles)") {
    // With fb = 1.0 the periphery is a DAG: every cover vertex must come
    // from the interlocked core.
    val g = graph(CorePeriphery.edges(n = 1500, nCore = 100, mCore = 1500, m = 7500, fb = 1.0,
      mRecip = 0, seed = 6))
    val cover = TopDown.cover(g, 5)
    assert(cover.size <= 100, s"cover ${cover.size} exceeds core size")
  }

  test("edges are pinned: the benchmark's graph.edge_hash and one roster row") {
    // FLK-S at 1/8 and WGO-S at 1/4, seed 1: perfbench/BASELINE.md.
    val flk = CorePeriphery.edges(10000, 750, 9000, 112500, 0.99, 1125, seed = 1)
    assert((flk.length, hash(flk)) == ((114426, 703996061863850L)))
    val wgo = CorePeriphery.edges(7500, 625, 6250, 82500, 0.99, 325, seed = 1)
    assert((wgo.length, hash(wgo)) == ((82933, 2665568045816056L)))
    // The WKV-S roster row at BENCH_SCALE=1, with its name-derived seed.
    val wkv = DatasetSpec("WKV-S", "Wiki-Vote", 1500, 400, 7200, 42000, 0.99, 280,
      heavyOnly = false)
    assert(wkv.seed == 23880)
    val e = wkv.edges
    assert((e.length, hash(e)) == ((41604, 3488373560314392L)))
  }

  test("sizes that do not fit are rejected before anything is drawn") {
    // LJ-S at BENCH_SCALE=1000: 2.2 G edges do not fit in one array.
    val lj = DatasetSpec("LJ-S", "LiveJournal", 200000000L, 12000000L, 144000000L,
      2200000000L, 0.99, 15000000L, heavyOnly = true)
    val e = intercept[IllegalArgumentException](lj.edges)
    assert(e.getMessage.contains("144000000 + 2056000000 + 2·15000000"), e.getMessage)
    intercept[IllegalArgumentException](CorePeriphery.edges(100, 0, 10, 10, 0.9, 0, 1))
    intercept[IllegalArgumentException](CorePeriphery.edges(100, 200, 10, 10, 0.9, 0, 1))
    intercept[IllegalArgumentException](CorePeriphery.edges(1L << 31, 10, 10, 10, 0.9, 0, 1))
    intercept[IllegalArgumentException](CorePeriphery.edges(100, 10, -1, 10, 0.9, 0, 1))
    intercept[IllegalArgumentException](CorePeriphery.edges(100, 10, 10, 10, 0.9, -1, 1))
  }

  test("datasets registry: all specs generate non-empty graphs") {
    assert(Datasets.byName("WKV-S").mimics == "Wiki-Vote")
    assert(Datasets.all.map(_.name).distinct.size == Datasets.all.size)
    assert(Datasets.speedup.map(_.name) == Seq("WKV-S", "WGO-S"))
    for (spec <- Datasets.all) {
      val g = Experiments.loadGraph(spec)
      assert(g.n > 0 && g.m > 0, spec.name)
      assert(g.ids.indices.tail.forall(i => g.ids(i - 1) < g.ids(i)), spec.name)
      assert(g.n <= spec.n, spec.name)
    }
  }

  test("datasets registry rejects unknown names") {
    intercept[IllegalArgumentException] { Datasets.byName("NOPE") }
  }

  test("dataset stand-ins expose their paper counterpart") {
    assert(Datasets.all.forall(_.mimics.nonEmpty))
    assert(Datasets.all.count(_.heavyOnly) == 2)
  }
}
