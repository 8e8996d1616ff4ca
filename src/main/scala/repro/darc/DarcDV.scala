package repro.darc

import repro.core.{CoverResult, DirectedGraph, SearchBudget}

/** DARC-DV — the paper's baseline (Section III-B, Algorithms 1–3), i.e. the
  * DARC k-cycle transversal of Kuhnle et al. run on the directed line graph
  * and mapped back to vertices.
  *
  * This is DARC's static run, which keeps a line-arc result set S and the
  * order its arcs were added in:
  *
  *  - AUGMENT(e), for every line arc e not in S: search one constrained line
  *    cycle that starts with e and uses no arc of S; if there is one, add
  *    ALL its arcs to S.
  *  - PRUNE(), once, over S in insertion order: drop an arc from S when no
  *    constrained line cycle is covered solely by it.
  *
  * The dynamic DARC's W ("removed but once useful") set, its cycle records U
  * and its counters h only pay off when edges arrive after a PRUNE. Here W
  * would be written only by the one PRUNE, after every AUGMENT has read it,
  * so it is always empty when read and all three are left out.
  *
  * Cycle searches are bounded DFS over the implicit line graph; like the
  * original DARC, worst-case time is O(n^k). Line cycles of length [3, k]
  * include the images of all constrained simple cycles of G plus images of
  * edge-simple (but not vertex-simple) closed walks — covering those extras
  * is exactly why the paper reports DARC-DV's covers as the largest.
  *
  * S lives in a dense flag array indexed by a per-line-node arc offset
  * (line arcs of node a are contiguous), not a hash set — membership tests
  * dominate the run time.
  */
object DarcDV {

  /** Thrown when Σ in(v)·out(v) exceeds `MaxArcs` — the benchmark prints
    * "-" for such runs, mirroring the paper's dashes on large graphs.
    */
  final class TooLargeException(val arcs: Long) extends RuntimeException(
    s"line graph has $arcs arcs")

  /** The most line arcs a run indexes; below the largest JVM array, so an
    * arc id always fits an `Int`.
    */
  private final val MaxArcs = 100_000_000L

  def cover(g: DirectedGraph, k: Int, minLen: Int = 3,
            budget: SearchBudget = SearchBudget.Unlimited): CoverResult = {
    CoverResult.requireBounds(k, minLen)
    val lg = new LineGraph(g)
    val arcs = lg.arcCount
    if (arcs > MaxArcs) throw new TooLargeException(arcs)

    // Dense arc indexing: arcs out of line node a occupy
    // [arcOff(a), arcOff(a+1)) in arc-id space.
    val arcOff = new Array[Int](lg.size + 1)
    var a = 0
    while (a < lg.size) {
      arcOff(a + 1) = arcOff(a) + (lg.outHi(a) - lg.outLo(a))
      a += 1
    }
    @inline def arcId(from: Int, to: Int): Int = arcOff(from) + (to - lg.outLo(from))

    val inS = new Array[Boolean](arcs.toInt)
    // S's arcs as (from << 32 | to), in the order AUGMENT added them.
    var order = new Array[Long](16)
    var added = 0
    var searches = 0L

    // The search's line path is path(0 until len); onPath(x) == stamp marks
    // its nodes. Node-simple in the line graph; cycle length = number of
    // line nodes ∈ [minLen, k].
    val path = new Array[Int](k)
    var len = 0
    val onPath = new Array[Int](lg.size)
    var stamp = 0

    def dfs(start: Int, cur: Int): Boolean = {
      if (budget != null) budget.spend()
      var nxt = lg.outLo(cur) // line node id == adjacency position
      val hi = lg.outHi(cur)
      while (nxt < hi) {
        if (nxt == start) {
          if (len >= minLen && len <= k && !inS(arcId(cur, start))) return true
        } else if (onPath(nxt) != stamp && len < k && !inS(arcId(cur, nxt))) {
          onPath(nxt) = stamp; path(len) = nxt; len += 1
          if (dfs(start, nxt)) return true
          len -= 1; onPath(nxt) = stamp - 1
        }
        nxt += 1
      }
      false
    }

    /** Whether a constrained line cycle starts with arc (start, second) and
      * otherwise uses no arc of S; if so, it is left in `path`.
      */
    def findCycle(start: Int, second: Int): Boolean = {
      searches += 1
      stamp += 1
      onPath(start) = stamp; onPath(second) = stamp
      path(0) = start; path(1) = second; len = 2
      dfs(start, second)
    }

    // AUGMENT phase: iterate all arcs in (from, to) order. A found cycle
    // avoids S, so each of its arcs is new to S.
    a = 0
    while (a < lg.size) {
      var b = lg.outLo(a)
      val hi = lg.outHi(a)
      while (b < hi) {
        if (!inS(arcId(a, b)) && findCycle(a, b)) {
          var i = 0
          while (i < len) {
            val x = path(i); val y = path((i + 1) % len)
            inS(arcId(x, y)) = true
            if (added == order.length)
              order = java.util.Arrays.copyOf(order, math.min(2L * added, arcs).toInt)
            order(added) = (x.toLong << 32) | y
            added += 1
            i += 1
          }
        }
        b += 1
      }
      a += 1
    }

    // PRUNE phase: S \ {e} stays feasible iff no constrained cycle through
    // e avoids S \ {e} — i.e. no cycle whose only S-arc is e. A kept S-arc
    // out of line node a passes through eDst(a), which joins the cover:
    // `present` is false exactly for cover vertices.
    val present = Array.fill(g.n)(true)
    var kept = 0L
    var i = 0
    while (i < added) {
      val from = (order(i) >>> 32).toInt
      val to = order(i).toInt
      if (findCycle(from, to)) { present(lg.eDst(from)) = false; kept += 1 }
      else inS(arcId(from, to)) = false
      i += 1
    }
    CoverResult.fromMask(g, present, Map("lineArcs" -> arcs, "searches" -> searches,
                                         "arcCover" -> kept))
  }
}
