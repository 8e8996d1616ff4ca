package repro.core

/** The paper's Top-Down algorithm (Section VI, Algorithm 8) with its three
  * instrumentation levels.
  *
  * The cover starts as ALL vertices; vertices are examined in ascending
  * original-id order. For vertex v we ask whether a constrained cycle
  * through v exists in the graph induced on D ∪ {v}, where D is the set of
  * vertices already released from the cover. If yes, v stays in the cover
  * (and contributes no edges to later searches); if no, v joins D.
  *
  * This yields a cover that is valid (for any constrained cycle, its
  * last-examined vertex was kept: all its other vertices were already in D,
  * so the witness search saw the whole cycle) and minimal (every kept v has
  * a witness cycle whose other vertices are permanently outside the cover).
  *
  * Variants — identical covers, different validation cost:
  *   - TDB    : plain bounded DFS validation
  *   - TDB+   : block ("barrier") DFS, O(k·m) per validation ⇒ O(k·m·n) total
  *   - TDB++  : TDB+ preceded by the linear BFS-filter (Algorithm 11)
  */
object TopDown {

  sealed trait Variant
  case object TDB extends Variant
  case object TDBPlus extends Variant
  case object TDBPlusPlus extends Variant

  def cover(g: DirectedGraph, k: Int, minLen: Int = 3,
            variant: Variant = TDBPlusPlus,
            budget: SearchBudget = SearchBudget.Unlimited): CoverResult = {
    CoverResult.requireBounds(k, minLen)
    // Membership in D ∪ {current v}; after the loop, false exactly for
    // cover vertices.
    val allowed = new Array[Boolean](g.n)
    val validator: NodeValidator = variant match {
      case TDB => new PlainDfsValidator(g, k, minLen, budget)
      case _   => new BlockDfsValidator(g, k, minLen)
    }
    val filter = if (variant == TDBPlusPlus) new BfsFilter(g, k) else null
    var validations = 0L

    var v = 0
    while (v < g.n) {
      allowed(v) = true
      val mayCycle = filter == null || filter.mayHaveCycle(v, allowed)
      val necessary = mayCycle && {
        validations += 1
        validator.existsCycleThrough(v, allowed)
      }
      if (necessary) allowed(v) = false // kept in cover: its edges never enter G0 again
      v += 1
    }

    CoverResult.fromMask(
      g,
      allowed,
      Map(
        "validations" -> validations,
        "dfsVisits"   -> validator.visits,
        "bfsPruned"   -> (if (filter == null) 0L else filter.pruned),
        "bfsCalls"    -> (if (filter == null) 0L else filter.calls),
      ),
    )
  }
}
