package repro.core

import scala.collection.mutable

/** Exhaustive reference algorithms for tiny graphs.
  *
  * Used by tests as the ground truth for cycle existence / enumeration and
  * by the naive greedy bounds discussion in DESIGN.md. All searches respect
  * the paper's cycle definition: simple, directed, length in `[minLen, k]`
  * with `minLen = 3` (self-loops and 2-cycles excluded) unless the
  * "with 2-cycles" variant (`minLen = 2`) is requested.
  */
object BruteForce {

  /** Enumerate every constrained simple cycle, each reported once, as the
    * vertex sequence rotated to start at its smallest internal vertex.
    * Exponential — only call on tiny graphs (tests cap n around 60).
    */
  def enumerateCycles(g: DirectedGraph, k: Int, minLen: Int = 3): Vector[Vector[Int]] = {
    val res = Vector.newBuilder[Vector[Int]]
    val onPath = new Array[Boolean](g.n)
    val path = new mutable.ArrayBuffer[Int]

    def dfs(start: Int, u: Int): Unit = {
      var i = g.outOff(u)
      while (i < g.outOff(u + 1)) {
        val w = g.outAdj(i)
        if (w == start) {
          val len = path.length // cycle length = path vertices (closing edge included)
          if (len >= minLen && len <= k) res += path.toVector
        } else if (w > start && !onPath(w) && path.length < k) {
          onPath(w) = true; path += w
          dfs(start, w)
          path.remove(path.length - 1); onPath(w) = false
        }
        i += 1
      }
    }

    var v = 0
    while (v < g.n) {
      onPath(v) = true; path += v
      dfs(v, v)
      path.clear(); onPath(v) = false
      v += 1
    }
    res.result()
  }

  /** Plain bounded DFS: does ANY constrained cycle exist among `allowed`
    * vertices? Worst-case exponential in k — reference implementation only.
    */
  def existsConstrainedCycle(g: DirectedGraph, k: Int, minLen: Int,
                             allowed: Int => Boolean): Boolean = {
    var v = 0
    while (v < g.n) {
      if (allowed(v) && existsCycleThrough(g, k, minLen, v, allowed)) return true
      v += 1
    }
    false
  }

  /** Plain bounded DFS: is there a constrained cycle through `s` using only
    * `allowed` vertices? The oracle for the FindCycle (Algorithm 5) kernel,
    * kept separate from [[PlainDfsValidator]] so tests check one against
    * the other.
    */
  def existsCycleThrough(g: DirectedGraph, k: Int, minLen: Int, s: Int,
                         allowed: Int => Boolean): Boolean = {
    val onPath = new Array[Boolean](g.n)

    // `len` counts the path's vertices: the cycle length once it closes.
    def dfs(u: Int, len: Int): Boolean = {
      var i = g.outOff(u)
      while (i < g.outOff(u + 1)) {
        val w = g.outAdj(i)
        if (allowed(w)) {
          if (w == s) {
            if (len >= minLen && len <= k) return true
          } else if (!onPath(w) && len < k) {
            onPath(w) = true
            if (dfs(w, len + 1)) return true
            onPath(w) = false
          }
        }
        i += 1
      }
      false
    }

    allowed(s) && { onPath(s) = true; dfs(s, 1) }
  }
}
