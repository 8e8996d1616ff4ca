package repro.core

import scala.collection.mutable

/** The paper's Bottom-Up algorithms (Section V): BUR (Algorithm 4) and the
  * minimal pruning pass that upgrades it to BUR+ (Algorithm 7).
  *
  * BUR iterates vertices in ascending id order; for each start vertex it
  * repeatedly finds a constrained cycle (FindCycle, the bounded DFS of
  * [[PlainDfsValidator]], one instance per call and one vertex mask), bumps
  * the hit-count H of every vertex on it, moves the highest-H vertex of the
  * cycle into the cover (removing its edges), and continues until no cycle
  * through the start vertex remains. Ties on H resolve to the earliest
  * vertex of the cycle, matching Algorithm 6's initialisation with v0.
  *
  * BUR+ then walks the cover in insertion order and drops every vertex v
  * that has no witness cycle in (G − R) + v, producing a minimal cover
  * (Theorem 4).
  */
object BottomUp {

  def cover(g: DirectedGraph, k: Int, minLen: Int = 3,
            minimalPrune: Boolean = false,
            budget: SearchBudget = SearchBudget.Unlimited): CoverResult = {
    CoverResult.requireBounds(k, minLen)
    val hits = new Array[Long](g.n)
    val present = Array.fill(g.n)(true) // false exactly for cover vertices
    val order = mutable.ArrayBuffer.empty[Int] // cover insertion order
    val findCycle = new PlainDfsValidator(g, k, minLen, budget)
    var cyclesFound = 0L

    var v = 0
    while (v < g.n) {
      var continue = present(v)
      while (continue) {
        val c = findCycle.findCycleThrough(v, present)
        if (c == null) continue = false
        else {
          cyclesFound += 1
          var i = 0
          while (i < c.length) { hits(c(i)) += 1; i += 1 }
          // FindCoverNode (Algorithm 6): first vertex achieving max H.
          var best = c(0)
          i = 1
          while (i < c.length) {
            if (hits(c(i)) > hits(best)) best = c(i)
            i += 1
          }
          present(best) = false
          order += best
          if (best == v) continue = false // v itself covers everything through v
        }
      }
      v += 1
    }

    var prunedCount = 0L
    if (minimalPrune) {
      // Algorithm 7: keep u only if it still witnesses a cycle once every
      // OTHER cover vertex is removed from the graph. Each check admits u
      // into the mask; u leaves the cover if no witness is found.
      for (u <- order) {
        present(u) = true
        if (findCycle.existsCycleThrough(u, present)) present(u) = false
        else prunedCount += 1
      }
    }

    CoverResult.fromMask(g, present, Map("cyclesFound" -> cyclesFound, "pruned" -> prunedCount))
  }
}
