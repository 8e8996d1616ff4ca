package repro.testkit

import scala.util.Random
import repro.core.DirectedGraph
import repro.graphgen.DatasetSpec

/** Deterministic small graphs for unit and property tests. */
object TestGraphs {

  def fromPairs(pairs: (Int, Int)*): DirectedGraph =
    DirectedGraph.fromInternal(
      if (pairs.isEmpty) 0 else pairs.flatMap(p => Seq(p._1, p._2)).max + 1,
      pairs.map(p => (p._1, p._2)).toArray)

  /** Directed triangle 0->1->2->0. */
  def triangle: DirectedGraph = fromPairs((0, 1), (1, 2), (2, 0))

  /** Directed 4-cycle. */
  def square: DirectedGraph = fromPairs((0, 1), (1, 2), (2, 3), (3, 0))

  /** Two triangles sharing vertex 0: 0-1-2 and 0-3-4. */
  def bowTie: DirectedGraph =
    fromPairs((0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0))

  /** Only a 2-cycle 0<->1 (no constrained cycle for minLen=3). */
  def twoCycle: DirectedGraph = fromPairs((0, 1), (1, 0))

  /** 2-cycle 0<->1 plus triangle 0->1->2->0 — the BFS/block trap: the
    * shortest return to 0 is the excluded 2-cycle.
    */
  def twoCyclePlusTriangle: DirectedGraph =
    fromPairs((0, 1), (1, 0), (1, 2), (2, 0))

  /** DAG: diamond 0->1->3, 0->2->3 — no cycles at all. */
  def dag: DirectedGraph = fromPairs((0, 1), (0, 2), (1, 3), (2, 3))

  /** The paper's Figure 1 e-commerce example: three simple cycles all
    * passing through vertex a(=0): a->b->c->a, a->d->e->a, a->f->g->h->a.
    */
  def figure1: DirectedGraph = fromPairs(
    (0, 1), (1, 2), (2, 0),
    (0, 3), (3, 4), (4, 0),
    (0, 5), (5, 6), (6, 7), (7, 0))

  /** Random digraph: n vertices, ~m edges, no self-loops, deterministic. */
  def random(n: Int, m: Int, seed: Long): DirectedGraph = {
    val rnd = new Random(seed)
    val edges = Array.fill(m) {
      var s = rnd.nextInt(n); var d = rnd.nextInt(n)
      while (d == s) d = rnd.nextInt(n)
      (s, d)
    }
    DirectedGraph.fromInternal(n, edges)
  }

  /** Random digraph where a fraction of edges get a reciprocal twin —
    * stresses the 2-cycle-exclusion machinery (block DFS evidence paths).
    */
  def randomWithReciprocals(n: Int, m: Int, pRecip: Double, seed: Long): DirectedGraph = {
    val rnd = new Random(seed)
    val edges = Array.newBuilder[(Int, Int)]
    (0 until m).foreach { _ =>
      var s = rnd.nextInt(n); var d = rnd.nextInt(n)
      while (d == s) d = rnd.nextInt(n)
      edges += ((s, d))
      if (rnd.nextDouble() < pRecip) edges += ((d, s))
    }
    DirectedGraph.fromInternal(n, edges.result())
  }

  /** Random digraph with sparse Long ids (exercises the id remapping). */
  def randomSparseIds(n: Int, m: Int, seed: Long): DirectedGraph = {
    val rnd = new Random(seed)
    val ids = Array.tabulate(n)(i => i.toLong * 1000 + rnd.nextInt(500))
    val edges = Seq.fill(m) {
      var s = rnd.nextInt(n); var d = rnd.nextInt(n)
      while (d == s) d = rnd.nextInt(n)
      (ids(s), ids(d))
    }
    DirectedGraph.fromEdges(edges)
  }

  /** Two roster rows named like the speed-up datasets, at 300 vertices:
    * small enough for every experiment, DARC-DV and plain TDB at k = 7
    * included, to run in a unit test.
    */
  def tinyRoster: Seq[DatasetSpec] = Seq(
    DatasetSpec("WKV-S", "Wiki-Vote", 300, 60, 360, 2400, 0.99, 20, heavyOnly = false),
    DatasetSpec("WGO-S", "webGoogle", 300, 80, 320, 1800, 0.99, 20, heavyOnly = false),
  )
}
