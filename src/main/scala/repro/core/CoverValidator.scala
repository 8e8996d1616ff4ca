package repro.core

/** Checks a computed cover for feasibility (no constrained cycle survives
  * in G − C) and minimality (every cover vertex has a private witness
  * cycle). Tests use the plain-DFS flavour for independence from the block
  * machinery and the smallest-vertex sweep; benches use the fast flavour
  * for large graphs.
  *
  * Bad input fails loudly: every cover id must be a vertex of `g`, and
  * `minLen` must be at least 2.
  */
object CoverValidator {

  /** The vertex mask of V − C: `allowed(v)` is false exactly for cover
    * vertices. Rejects ids that are not vertices of `g`, and `minLen < 2`,
    * for both checks.
    */
  private def complementMask(g: DirectedGraph, minLen: Int, coverIds: Array[Long]): Array[Boolean] = {
    require(minLen >= 2, s"minimum cycle length minLen=$minLen must be at least 2")
    val allowed = Array.fill(g.n)(true)
    coverIds.foreach { id =>
      val v = java.util.Arrays.binarySearch(g.ids, id)
      require(v >= 0, s"cover id $id is not a vertex of the graph")
      allowed(v) = false
    }
    allowed
  }

  /** Valid ⟺ the graph induced on V − C has no constrained cycle.
    *
    * The fast path is one ascending sweep over V − C. Every constrained
    * cycle has a unique smallest vertex and lies wholly in the mask when
    * that vertex is searched, so a vertex whose search finds no cycle
    * leaves the mask for every later search (Johnson, SIAM J. Comput.
    * 4(1), 1975). This is the opposite argument to Top-Down's own
    * last-processed-vertex validity proof, so the check does not replay
    * the algorithm it checks. The slow path stays a plain exhaustive
    * search and shares no kernel or argument with the fast one.
    */
  def isValid(g: DirectedGraph, k: Int, minLen: Int, coverIds: Array[Long],
              fast: Boolean = false): Boolean = {
    val allowed = complementMask(g, minLen, coverIds)
    if (!fast) !BruteForce.existsConstrainedCycle(g, k, minLen, v => allowed(v))
    else {
      val filter = new BfsFilter(g, k)
      val blockDfs = new BlockDfsValidator(g, k, minLen)
      var v = 0
      while (v < g.n) {
        if (allowed(v)) {
          if (filter.mayHaveCycle(v, allowed) && blockDfs.existsCycleThrough(v, allowed)) return false
          allowed(v) = false // every constrained cycle through v is ruled out
        }
        v += 1
      }
      true
    }
  }

  /** Minimal ⟺ for each c ∈ C there is a constrained cycle through c whose
    * other vertices all avoid C. Each check admits c into the mask of V − C
    * and removes it again afterwards.
    */
  def isMinimal(g: DirectedGraph, k: Int, minLen: Int, coverIds: Array[Long],
                fast: Boolean = false): Boolean = {
    val allowed = complementMask(g, minLen, coverIds)
    val blockDfs = if (fast) new BlockDfsValidator(g, k, minLen) else null
    coverIds.forall { id =>
      val c = java.util.Arrays.binarySearch(g.ids, id)
      allowed(c) = true
      val witnessed =
        if (!fast) BruteForce.existsCycleThrough(g, k, minLen, c, x => allowed(x))
        else blockDfs.existsCycleThrough(c, allowed)
      allowed(c) = false
      witnessed
    }
  }
}
