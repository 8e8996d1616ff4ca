package repro.core

import java.util.concurrent.atomic.{AtomicBoolean, AtomicInteger, AtomicReference, LongAdder}

/** Checks a computed cover for feasibility (no constrained cycle survives
  * in G − C) and minimality (every cover vertex has a private witness
  * cycle). Tests use the plain-DFS flavour for independence from the block
  * machinery and the smallest-vertex sweep; benches use the fast flavour
  * for large graphs.
  *
  * The fast flavour runs on one worker thread per available processor.
  * Each check is split into contiguous chunks whose searches do not depend
  * on one another (see [[isValid]] and [[isMinimal]]); workers claim the
  * chunks in ascending order. The first chunk that fails stops every
  * worker after its current chunk. Every worker is joined before the call
  * returns, and an exception in a worker is rethrown on the calling thread,
  * so a failed worker never reads as a passed check.
  *
  * Bad input fails loudly: every cover id must be a vertex of `g`,
  * `minLen` must be at least 2 and `k` at least `minLen`.
  */
object CoverValidator {

  /** Chunks per fast check, and the fewest vertices or cover ids in one:
    * many more chunks than workers, because the low chunks of the validity
    * sweep search bigger graphs than the high ones.
    */
  private val Chunks = 64
  private val MinChunk = 64

  /** The vertex mask of V − C: `allowed(v)` is false exactly for cover
    * vertices. Rejects ids that are not vertices of `g`, `minLen < 2` and
    * `k < minLen`, for both checks.
    */
  private def complementMask(g: DirectedGraph, k: Int, minLen: Int,
                             coverIds: Array[Long]): Array[Boolean] = {
    CoverResult.requireBounds(k, minLen)
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
    * The fast path is an ascending sweep over V − C. Every constrained
    * cycle has a unique smallest vertex and lies wholly in the mask when
    * that vertex is searched, so a vertex whose search finds no cycle
    * leaves the mask for every later search (Johnson, SIAM J. Comput.
    * 4(1), 1975). This is the opposite argument to Top-Down's own
    * last-processed-vertex validity proof, so the check does not replay
    * the algorithm it checks. The slow path stays a plain exhaustive
    * search and shares no kernel or argument with the fast one.
    *
    * At v's search the sweep's mask is exactly {u ∈ V − C : u ≥ v}, so no
    * search depends on the outcome of another, and the sweep splits into
    * chunks [a, b) of vertex ids; see [[sweepWork]].
    */
  def isValid(g: DirectedGraph, k: Int, minLen: Int, coverIds: Array[Long],
              fast: Boolean = false): Boolean = {
    val allowed = complementMask(g, k, minLen, coverIds)
    if (!fast) !BruteForce.existsConstrainedCycle(g, k, minLen, v => allowed(v))
    else sweepWork(g, k, minLen, allowed) >= 0
  }

  /** The fast validity sweep over the V − C mask `allowed`, which it does
    * not write. Each worker copies the mask once. Before it sweeps a chunk
    * [a, b) it clears every entry below a: entries of its own earlier
    * chunks are already clear, so this costs O(n) per worker in all. Each
    * search then sees the mask a single ascending sweep would show it.
    *
    * Returns −1 if some search finds a cycle, else the work done: searches
    * plus block-DFS visits. That count is the same as a single-threaded
    * sweep's, whatever the thread schedule.
    */
  private[core] def sweepWork(g: DirectedGraph, k: Int, minLen: Int,
                              allowed: Array[Boolean]): Long = {
    val work = new LongAdder
    val valid = allChunksPass(g.n) { () =>
      val mask = allowed.clone()
      val filter = new BfsFilter(g, k)
      val blockDfs = new BlockDfsValidator(g, k, minLen)
      var cleared = 0 // mask(u) is false for every u < cleared
      (a, b) => {
        java.util.Arrays.fill(mask, cleared, a, false)
        val before = filter.calls + blockDfs.visits
        var found = false
        var v = a
        while (!found && v < b) {
          if (mask(v)) {
            found = filter.mayHaveCycle(v, mask) && blockDfs.existsCycleThrough(v, mask)
            mask(v) = false // every constrained cycle through v is ruled out
          }
          v += 1
        }
        cleared = b
        work.add(filter.calls + blockDfs.visits - before)
        !found
      }
    }
    if (valid) work.sum else -1
  }

  /** Minimal ⟺ for each c ∈ C there is a constrained cycle through c whose
    * other vertices all avoid C. Each check admits c into the mask of V − C
    * and removes it again afterwards, so every check runs on V − C plus c
    * alone and the fast path splits the cover into chunks, one mask per
    * worker.
    */
  def isMinimal(g: DirectedGraph, k: Int, minLen: Int, coverIds: Array[Long],
                fast: Boolean = false): Boolean = {
    val allowed = complementMask(g, k, minLen, coverIds)
    def witnessed(mask: Array[Boolean], id: Long, search: Int => Boolean): Boolean = {
      val c = java.util.Arrays.binarySearch(g.ids, id)
      mask(c) = true
      val found = search(c)
      mask(c) = false
      found
    }
    if (!fast)
      coverIds.forall(witnessed(allowed, _, c => BruteForce.existsCycleThrough(g, k, minLen, c, x => allowed(x))))
    else allChunksPass(coverIds.length) { () =>
      val mask = allowed.clone()
      val blockDfs = new BlockDfsValidator(g, k, minLen)
      (a, b) => (a until b).forall(i => witnessed(mask, coverIds(i), blockDfs.existsCycleThrough(_, mask)))
    }
  }

  /** Whether every chunk of 0 until n passes. Splits 0 until n into about
    * [[Chunks]] contiguous chunks of at least [[MinChunk]] items and runs
    * them on up to `availableProcessors` worker threads, named
    * "cover-check", which claim chunks in ascending order. `newWorker`
    * runs once on each worker thread and returns that worker's chunk test:
    * `passes(a, b)` for chunk [a, b).
    *
    * The first chunk that fails, or a worker exception, stops every worker
    * before its next chunk. All workers are joined before this returns,
    * even when the calling thread is interrupted; the first worker
    * exception is then rethrown here, and an interrupt is rethrown as an
    * `InterruptedException`.
    */
  private def allChunksPass(n: Int)(newWorker: () => (Int, Int) => Boolean): Boolean = {
    val size = math.max(MinChunk, (n + Chunks - 1) / Chunks)
    val chunks = (n + size - 1) / size
    val next = new AtomicInteger
    val stop = new AtomicBoolean
    val error = new AtomicReference[Throwable]
    def work(): Unit =
      try {
        val passes = newWorker()
        var i = next.getAndIncrement()
        while (i < chunks && !stop.get) {
          val a = i * size
          if (!passes(a, a + math.min(size, n - a))) stop.set(true)
          i = next.getAndIncrement()
        }
      } catch { case t: Throwable => error.compareAndSet(null, t); stop.set(true) }
    val workers = Array.fill(math.min(chunks, Runtime.getRuntime.availableProcessors))(
      new Thread(() => work(), "cover-check"))
    var interrupted = false
    try workers.foreach(_.start())
    finally workers.foreach { t =>
      while (t.isAlive)
        try t.join()
        catch { case _: InterruptedException => interrupted = true; stop.set(true) }
    }
    // A join on a worker that has already ended does not wait, so an
    // interrupt can still be pending here.
    if (Thread.interrupted()) interrupted = true
    if (error.get != null) throw error.get
    if (interrupted) throw new InterruptedException("cover check interrupted")
    !stop.get
  }
}
