package repro.core

/** Node-necessary validation strategies for the Top-Down algorithm.
  *
  * A validator answers one question: "in the graph induced on `allowed`
  * vertices, is there a constrained simple cycle through `s`?" — the paper's
  * Node Necessary Validation (Section VI-C). Three strategies reproduce the
  * paper's TDB / TDB+ / TDB++ variants:
  *
  *   - [[PlainDfsValidator]]  — bounded DFS, worst-case exponential (TDB;
  *                              also FindCycle for BUR/BUR+)
  *   - [[BlockDfsValidator]]  — Algorithm 9/10 block ("barrier") DFS, O(km) (TDB+)
  *   - [[BfsFilter]]          — Algorithm 11 linear pre-filter (added in TDB++)
  *
  * The vertex set is a mask, `allowed: Array[Boolean]` of length `g.n`:
  * `allowed(v)` says whether the search may use `v`. The caller owns the
  * mask and may change it between calls (Top-Down flips one entry per
  * vertex); the kernels only read it. They walk `g.outOff` / `g.outAdj`
  * (and `inOff` / `inAdj`) directly and allocate nothing per call, so one
  * instance serves all n validations of a run.
  *
  * Validators carry per-run counters (`visits`, `calls`, `pruned`) consumed
  * by the speed-up benchmark (paper Fig. 10 rendered as a table).
  */
trait NodeValidator {
  /** True iff a simple cycle of length in [minLen, k] through `s` exists
    * using only vertices `v` with `allowed(v)` (s itself must be allowed).
    * `allowed` is read, never written.
    */
  def existsCycleThrough(s: Int, allowed: Array[Boolean]): Boolean

  /** Vertices pushed onto the search stack across all calls so far. */
  def visits: Long
}

/** The paper's plain bounded DFS, FindCycle (Algorithm 5): TDB's
  * validation and the BUR/BUR+ cycle search.
  *
  * The current path lives in a preallocated `Array[Int](k)`; a call copies
  * it only when it returns a cycle. Each DFS call is one visit and spends
  * one unit of `budget`.
  */
final class PlainDfsValidator(g: DirectedGraph, k: Int, minLen: Int = 3,
                              budget: SearchBudget = SearchBudget.Unlimited)
    extends NodeValidator {
  private var visitCount = 0L
  private val onPath = new Array[Boolean](g.n)
  private val path = new Array[Int](k) // path(d): the vertex at depth d

  override def visits: Long = visitCount

  override def existsCycleThrough(s: Int, allowed: Array[Boolean]): Boolean =
    search(s, allowed) > 0

  /** The first constrained cycle through `s` in DFS order, as its vertex
    * sequence starting at `s`, or null. `allowed` is read, never written.
    */
  def findCycleThrough(s: Int, allowed: Array[Boolean]): Array[Int] = {
    val len = search(s, allowed)
    if (len == 0) null else java.util.Arrays.copyOf(path, len)
  }

  /** Length of the first cycle found (left in `path`), or 0 if none. */
  private def search(s: Int, allowed: Array[Boolean]): Int = {
    def dfs(u: Int, d: Int): Int = {
      visitCount += 1
      if (budget != null) budget.spend()
      val adj = g.outAdj
      var i = g.outOff(u)
      val hi = g.outOff(u + 1)
      var found = 0
      while (found == 0 && i < hi) {
        val w = adj(i)
        if (allowed(w)) {
          if (w == s) {
            val len = d + 1
            if (len >= minLen && len <= k) found = len
          } else if (!onPath(w) && d + 1 < k) {
            onPath(w) = true
            path(d + 1) = w
            found = dfs(w, d + 1)
            onPath(w) = false
          }
        }
        i += 1
      }
      found
    }
    onPath(s) = true
    path(0) = s
    val r = dfs(s, 0)
    onPath(s) = false
    r
  }
}

/** TDB+ validator — Algorithms 9 and 10 of the paper.
  *
  * `block(u)` is a lower bound on the length of any path u -> s usable by
  * the search. A child `w` at depth d+1 is expanded only when
  * `d + 1 + block(w) <= k`; when its subtree fails, `block(w)` is raised
  * (the subtree proved sd(w, s | S) > k - d - 1). Each failure raises the
  * block by at least one, so a vertex enters the stack at most k times and
  * the whole validation runs in O(k·m).
  *
  * The hop-constrained subtlety (paper's UNBLOCK, Algorithm 10): a depth-1
  * vertex u with a direct edge u -> s closes a 2-cycle, which is NOT an
  * accepted cycle when minLen = 3, so subtrees can "fail" even though they
  * contain vertices that genuinely reach s. Every rejected return is
  * therefore recorded as EVIDENCE: `unblock(u, 1)` stores `evid(x)` = best
  * known length of an x ⇝ s path, propagating to in-neighbours
  * transitively (unlike the paper's pseudocode we do not skip on-stack
  * vertices here — evidence is stack-independent; see DESIGN.md). Failure
  * bounds are then capped by the evidence, `block(w) = min(k - d,
  * evid(w))`, which keeps every stored block a true usable lower bound —
  * without the cap a block set before the evidence arrived would over-prune
  * (e.g. a triangle hiding behind a reciprocated edge).
  *
  * Blocks are reset lazily per source via a stamp array, so one instance is
  * reused across all n validations of a Top-Down run.
  */
final class BlockDfsValidator(g: DirectedGraph, k: Int, minLen: Int = 3) extends NodeValidator {
  private val Inf = Int.MaxValue / 4
  private var visitCount = 0L
  private val onPath     = new Array[Boolean](g.n)
  private val block      = new Array[Int](g.n)
  private val blockStamp = new Array[Int](g.n)
  private val evid       = new Array[Int](g.n)
  private val evidStamp  = new Array[Int](g.n)
  private var stamp = 0

  override def visits: Long = visitCount

  @inline private def b(u: Int): Int = if (blockStamp(u) == stamp) block(u) else 1
  @inline private def setB(u: Int, v: Int): Unit = { blockStamp(u) = stamp; block(u) = v }
  @inline private def e(u: Int): Int = if (evidStamp(u) == stamp) evid(u) else Inf
  @inline private def setE(u: Int, v: Int): Unit = { evidStamp(u) = stamp; evid(u) = v }

  override def existsCycleThrough(s: Int, allowed: Array[Boolean]): Boolean = {
    stamp += 1

    // Record evidence of an x ⇝ s path of length l and propagate backwards.
    // Also lowers the block (lowering a lower bound is always safe).
    def unblock(x: Int, l: Int): Unit = {
      if (l <= k && l < e(x)) {
        setE(x, l)
        if (b(x) > l) setB(x, l)
        val adj = g.inAdj
        var i = g.inOff(x)
        val hi = g.inOff(x + 1)
        while (i < hi) {
          val y = adj(i)
          if (allowed(y) && y != s) unblock(y, l + 1)
          i += 1
        }
      }
    }

    // u is on the stack at depth d (edges from s). Returns true when an
    // accepted cycle was found (terminates the whole search).
    def dfs(u: Int, d: Int): Boolean = {
      visitCount += 1
      val adj = g.outAdj
      var i = g.outOff(u)
      val hi = g.outOff(u + 1)
      var found = false
      while (!found && i < hi) {
        val w = adj(i)
        if (allowed(w)) {
          if (w == s) {
            val len = d + 1
            if (len >= minLen && len <= k) found = true
            else unblock(u, 1) // rejected short return: still hard evidence
          } else if (!onPath(w) && d + 1 < k) {
            if (d + 1 + b(w) <= k) {
              onPath(w) = true
              found = dfs(w, d + 1)
              onPath(w) = false
              // Subtree failure proves no USABLE path within budget k-d-1;
              // never raise the block past recorded reach evidence.
              if (!found) setB(w, math.min(k - d, e(w)))
            }
          }
        }
        i += 1
      }
      found
    }

    onPath(s) = true
    val r = dfs(s, 0)
    onPath(s) = false
    r
  }
}

/** TDB++ pre-filter — Algorithm 11 (BFS-filter), safe variant.
  *
  * Runs a forward BFS from `s` over allowed vertices to depth k-1. If no
  * allowed in-neighbour of `s` is reached, no closed walk of length <= k
  * through `s` exists, hence no constrained cycle, and the expensive DFS is
  * skipped. The filter is conservative: a reachable in-neighbour may only
  * witness a 2-cycle walk, in which case the block DFS still decides.
  * One BFS is O(m) — the "linear filter" the paper credits for most of the
  * speed-up at large k.
  *
  * Each call first stamps s's in-neighbours in `returnStamp`, so "is w an
  * in-neighbour of s?" is one array read per discovered vertex. The mask
  * `allowed` is read, never written.
  */
final class BfsFilter(g: DirectedGraph, k: Int) {
  private val seenStamp = new Array[Int](g.n)
  private val returnStamp = new Array[Int](g.n)
  private val queue = new Array[Int](math.max(1, g.n))
  private var stamp = 0
  private var prunedCount = 0L
  private var callCount = 0L

  /** Number of validations short-circuited by the filter so far. */
  def pruned: Long = prunedCount
  def calls: Long = callCount

  /** False ⇒ certainly no constrained cycle through s (safe to skip). */
  def mayHaveCycle(s: Int, allowed: Array[Boolean]): Boolean = {
    callCount += 1
    if (g.outDeg(s) == 0 || g.inDeg(s) == 0) { prunedCount += 1; return false }
    stamp += 1
    val inAdj = g.inAdj
    var j = g.inOff(s)
    val inEnd = g.inOff(s + 1)
    while (j < inEnd) { returnStamp(inAdj(j)) = stamp; j += 1 }
    val adj = g.outAdj
    var head = 0; var tail = 0
    var depth = 0
    seenStamp(s) = stamp
    queue(tail) = s; tail += 1
    var levelEnd = tail
    var reachedReturn = false
    while (head < tail && depth < k - 1 && !reachedReturn) {
      val u = queue(head); head += 1
      var i = g.outOff(u)
      val hi = g.outOff(u + 1)
      while (i < hi && !reachedReturn) {
        val w = adj(i)
        if (w != s && allowed(w) && seenStamp(w) != stamp) {
          seenStamp(w) = stamp
          // Reached an in-neighbour of s => closed walk of length depth+2 <= k.
          if (returnStamp(w) == stamp) reachedReturn = true
          queue(tail) = w; tail += 1
        }
        i += 1
      }
      if (head == levelEnd) { depth += 1; levelEnd = tail }
    }
    if (!reachedReturn) prunedCount += 1
    reachedReturn
  }
}
