package repro.darc

import scala.collection.mutable
import repro.core.{CoverResult, DirectedGraph, SearchBudget}

/** DARC-DV — the paper's baseline (Section III-B, Algorithms 1–3), i.e. the
  * DARC k-cycle transversal of Kuhnle et al. run on the directed line graph
  * and mapped back to vertices.
  *
  * DARC keeps an edge (here: line-arc) result set S, a "removed but once
  * useful" set W and a prune queue P:
  *
  *  - AUGMENT(e): while an uncovered constrained line cycle through e
  *    exists (no arc of it in S), either move one of its W-arcs back into S,
  *    or add ALL its arcs to S and P.
  *  - PRUNE(): pop arcs from P; drop an arc from S whenever no constrained
  *    line cycle is covered solely by it, parking it in W.
  *
  * Cycle searches are bounded DFS over the implicit line graph; like the
  * original DARC, worst-case time is O(n^k). Line cycles of length [3, k]
  * include the images of all constrained simple cycles of G plus images of
  * edge-simple (but not vertex-simple) closed walks — covering those extras
  * is exactly why the paper reports DARC-DV's covers as the largest.
  *
  * Arc state lives in a dense byte array indexed by a per-line-node arc
  * offset (line arcs of node a are contiguous), not a hash set — membership
  * tests dominate the run time. The original's cycle bookkeeping (U, h)
  * only accelerates its dynamic variant; feasibility here is checked
  * directly by a cycle search, which preserves the static output.
  */
object DarcDV {

  /** Thrown when Σ in(v)·out(v) exceeds `maxArcs` — the benchmark prints
    * "-" for such runs, mirroring the paper's dashes on large graphs.
    */
  final class TooLargeException(val arcs: Long) extends RuntimeException(
    s"line graph has $arcs arcs")

  private final val None0: Byte = 0
  private final val InS: Byte = 1
  private final val InW: Byte = 2

  def cover(g: DirectedGraph, k: Int, minLen: Int = 3,
            maxArcs: Long = 100_000_000L,
            budget: SearchBudget = SearchBudget.Unlimited): CoverResult = {
    CoverResult.requireBounds(k, minLen)
    val lg = new LineGraph(g)
    val arcs = lg.arcCount
    if (arcs > maxArcs) throw new TooLargeException(arcs)

    // Dense arc indexing: arcs out of line node a occupy
    // [arcOff(a), arcOff(a+1)) in arc-id space.
    val arcOff = new Array[Long](lg.size + 1)
    var a = 0
    while (a < lg.size) {
      arcOff(a + 1) = arcOff(a) + (lg.outHi(a) - lg.outLo(a))
      a += 1
    }
    @inline def arcId(from: Int, to: Int): Long = arcOff(from) + (to - lg.outLo(from))

    val state = new Array[Byte](arcs.toInt)
    val P = mutable.ArrayDeque.empty[Long] // encoded (from, to) pairs
    var searches = 0L
    var sSize = 0L

    // DFS over line nodes from `from` back to `start`, using only arcs not
    // in S (`except`, an arc id or -1, is additionally allowed — used by
    // PRUNE to probe its own arc). Node-simple in the line graph; cycle
    // length = number of line nodes ∈ [minLen, k]. Returns the node path or
    // null.
    val onPathStamp = new Array[Int](lg.size)
    var stamp = 0
    val path = new mutable.ArrayBuffer[Int]

    def findCycle(start: Int, from: Int, except: Long): Array[Int] = {
      searches += 1
      stamp += 1
      path.clear()

      @inline def ok(x: Int, y: Int): Boolean = {
        val id = arcId(x, y)
        id == except || state(id.toInt) != InS
      }

      def dfs(cur: Int): Boolean = {
        if (budget != null) budget.spend()
        var i = lg.outLo(cur)
        val hi = lg.outHi(cur)
        while (i < hi) {
          val nxt = i // line node id == adjacency position
          if (nxt == start) {
            val len = path.length
            if (len >= minLen && len <= k && ok(cur, start)) return true
          } else if (onPathStamp(nxt) != stamp && path.length < k && ok(cur, nxt)) {
            onPathStamp(nxt) = stamp; path += nxt
            if (dfs(nxt)) return true
            path.remove(path.length - 1); onPathStamp(nxt) = stamp - 1
          }
          i += 1
        }
        false
      }

      onPathStamp(start) = stamp; path += start
      if (from != start) { onPathStamp(from) = stamp; path += from }
      if (dfs(path.last)) path.toArray else null
    }

    @inline def encode(x: Int, y: Int): Long = (x.toLong << 32) | (y.toLong & 0xffffffffL)

    def augment(a0: Int, b0: Int): Unit = {
      val id = arcId(a0, b0).toInt
      state(id) match {
        case InS => ()
        case InW =>
          state(id) = InS; sSize += 1; P += encode(a0, b0)
        case _ =>
          var continue = true
          while (continue) {
            val c = findCycle(a0, b0, -1L)
            if (c == null) continue = false
            else {
              // arcs of the cycle: consecutive node pairs incl. the closure
              var wFrom = -1; var wTo = -1
              var i = 0
              while (wFrom < 0 && i < c.length) {
                val x = c(i); val y = c((i + 1) % c.length)
                if (state(arcId(x, y).toInt) == InW) { wFrom = x; wTo = y }
                i += 1
              }
              if (wFrom >= 0) {
                state(arcId(wFrom, wTo).toInt) = InS; sSize += 1; P += encode(wFrom, wTo)
              } else {
                i = 0
                while (i < c.length) {
                  val x = c(i); val y = c((i + 1) % c.length)
                  val aid = arcId(x, y).toInt
                  if (state(aid) != InS) { state(aid) = InS; sSize += 1; P += encode(x, y) }
                  i += 1
                }
                continue = false // the probed arc is now in S
              }
            }
          }
      }
    }

    // AUGMENT phase: iterate all arcs in (from, to) order.
    a = 0
    while (a < lg.size) {
      var b = lg.outLo(a)
      val hi = lg.outHi(a)
      while (b < hi) {
        augment(a, b)
        b += 1
      }
      a += 1
    }

    // PRUNE phase: S \ {e} stays feasible iff no constrained cycle through
    // e avoids S \ {e} — i.e. no cycle whose only S-arc is e.
    while (P.nonEmpty) {
      val enc = P.removeHead()
      val from = (enc >>> 32).toInt
      val to = (enc & 0xffffffffL).toInt
      val id = arcId(from, to)
      if (state(id.toInt) == InS) {
        val witness = findCycle(from, to, id)
        if (witness == null) { state(id.toInt) = InW; sSize -= 1 }
      }
    }

    // An S-arc out of line node a passes through viaVertex(a), which joins
    // the cover: `present` is false exactly for cover vertices.
    val present = Array.fill(g.n)(true)
    a = 0
    while (a < lg.size) {
      var id = arcOff(a)
      while (id < arcOff(a + 1)) {
        if (state(id.toInt) == InS) present(lg.viaVertex(a)) = false
        id += 1
      }
      a += 1
    }
    CoverResult.fromMask(g, present, Map("lineArcs" -> arcs, "searches" -> searches,
                                         "arcCover" -> sSize))
  }
}
