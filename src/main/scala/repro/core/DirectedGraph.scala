package repro.core

/** Immutable CSR (compressed sparse row) directed graph.
  *
  * Vertices are dense internal ints `0 until n`; `ids(v)` maps back to the
  * original (sparse) Long id, ascending, so every algorithm that iterates
  * `0 until n` processes vertices in ascending original-id order — the
  * deterministic processing order used by all cover algorithms in this repo.
  *
  * Self-loops are dropped at construction (the paper excludes them from the
  * cycle definition) and parallel edges are deduplicated. Bidirectional
  * edges are KEPT: a 2-cycle is not a constrained cycle, but each direction
  * may still participate in longer simple cycles.
  *
  * Construction makes no boxed values. Both constructors end in one CSR
  * builder over encoded `src << 32 | dst` longs, which sorts, dedups and
  * fills both sides from them; `fromEdges` first maps each original id to
  * its rank through a flat open-addressing id table.
  */
final class DirectedGraph private (
    val n: Int,
    val ids: Array[Long],
    val outOff: Array[Int],
    val outAdj: Array[Int],
    val inOff: Array[Int],
    val inAdj: Array[Int],
) {

  /** Number of directed edges after self-loop removal and dedup. */
  def m: Int = outAdj.length

  def outDeg(v: Int): Int = outOff(v + 1) - outOff(v)
  def inDeg(v: Int): Int  = inOff(v + 1) - inOff(v)

  def edgeSeq: Seq[(Long, Long)] = {
    val b = Seq.newBuilder[(Long, Long)]
    var v = 0
    while (v < n) {
      var i = outOff(v)
      while (i < outOff(v + 1)) { b += ((ids(v), ids(outAdj(i)))); i += 1 }
      v += 1
    }
    b.result()
  }

  /** True if the edge u->v exists (binary search over sorted adjacency). */
  def hasEdge(u: Int, v: Int): Boolean = {
    var lo = outOff(u); var hi = outOff(u + 1) - 1
    while (lo <= hi) {
      val mid = (lo + hi) >>> 1
      val x = outAdj(mid)
      if (x == v) return true
      else if (x < v) lo = mid + 1
      else hi = mid - 1
    }
    false
  }
}

object DirectedGraph {

  /** Build from (src, dst) pairs with arbitrary Long ids.
    * Drops self-loops, deduplicates parallel edges, sorts adjacency lists.
    *
    * The pairs are read once into two primitive arrays. Their distinct ids
    * go into a flat id table; only those ids are sorted, and each one's rank
    * is written back into its slot, so every endpoint then costs one probe.
    * The rank map preserves order: an input sorted by (src, dst), as every
    * generator in the repo emits it, gives an already sorted encoded array.
    */
  def fromEdges(edges: Iterable[(Long, Long)]): DirectedGraph = {
    val m = edges.size
    val src = new Array[Long](m)
    val dst = new Array[Long](m)
    var i = 0
    edges.foreach { e => src(i) = e._1; dst(i) = e._2; i += 1 }

    val table = new IdTable
    i = 0
    while (i < m) { table.add(src(i)); table.add(dst(i)); i += 1 }
    val ids = table.rank()

    val enc = new Array[Long](m)
    var w = 0
    i = 0
    while (i < m) {
      if (src(i) != dst(i)) { enc(w) = encode(table.rankOf(src(i)), table.rankOf(dst(i))); w += 1 }
      i += 1
    }
    buildCsr(ids.length, enc, w, ids)
  }

  /** Build from edges already on dense ids `0 until n` (ids map to themselves). */
  def fromInternal(n: Int, edges: Array[(Int, Int)]): DirectedGraph = {
    val enc = new Array[Long](edges.length)
    var w = 0
    edges.foreach { case (s, d) => if (s != d) { enc(w) = encode(s, d); w += 1 } }
    buildCsr(n, enc, w, Array.tabulate(n)(_.toLong))
  }

  @inline private def encode(s: Int, d: Int): Long = (s.toLong << 32) | (d.toLong & 0xffffffffL)

  /** The CSR graph of the first `len` encoded `src << 32 | dst` edges of
    * `enc`, which it sorts and deduplicates in place. The sort orders each
    * out-list by destination; the in-lists are filled in that same order,
    * so they come out ascending by source.
    */
  private def buildCsr(n: Int, enc: Array[Long], len: Int, ids: Array[Long]): DirectedGraph = {
    java.util.Arrays.sort(enc, 0, len)
    var m = 0
    var j = 0
    while (j < len) {
      if (m == 0 || enc(j) != enc(m - 1)) { enc(m) = enc(j); m += 1 }
      j += 1
    }
    val outOff = new Array[Int](n + 1)
    val inOff  = new Array[Int](n + 1)
    val outAdj = new Array[Int](m)
    var e = 0
    while (e < m) {
      val x = enc(e)
      outOff((x >>> 32).toInt + 1) += 1
      inOff(x.toInt + 1) += 1
      outAdj(e) = x.toInt
      e += 1
    }
    var v = 0
    while (v < n) { outOff(v + 1) += outOff(v); inOff(v + 1) += inOff(v); v += 1 }
    val inAdj = new Array[Int](m)
    val inCur = java.util.Arrays.copyOf(inOff, n)
    e = 0
    while (e < m) {
      val x = enc(e)
      val d = x.toInt
      inAdj(inCur(d)) = (x >>> 32).toInt
      inCur(d) += 1
      e += 1
    }
    new DirectedGraph(n, ids, outOff, outAdj, inOff, inAdj)
  }

  /** Flat open-addressing set of Long ids: `Array[Long]` keys, `Array[Int]`
    * slots (-1 = empty), SplitMix64 hash, linear probing, grown by doubling
    * to keep the load at most 1/2. After [[rank]] each slot holds the rank
    * of its key among all keys.
    */
  private final class IdTable {
    private var keys  = new Array[Long](16)
    private var slots = empty(16)
    private var mask  = 15
    private var size  = 0

    @inline private def home(k: Long): Int = {
      var x = k
      x = (x ^ (x >>> 30)) * 0xbf58476d1ce4e5b9L
      x = (x ^ (x >>> 27)) * 0x94d049bb133111ebL
      (x ^ (x >>> 31)).toInt & mask
    }

    /** Slot of `k`, or of the empty slot where it would go. */
    @inline private def find(k: Long): Int = {
      var p = home(k)
      while (slots(p) >= 0 && keys(p) != k) p = (p + 1) & mask
      p
    }

    def add(k: Long): Unit = {
      val p = find(k)
      if (slots(p) < 0) {
        keys(p) = k; slots(p) = 0; size += 1
        if (2 * size > mask + 1) grow()
      }
    }

    private def grow(): Unit = {
      val oldKeys = keys
      val oldSlots = slots
      keys = new Array[Long](oldKeys.length * 2)
      slots = empty(oldKeys.length * 2)
      mask = keys.length - 1
      var i = 0
      while (i < oldKeys.length) {
        if (oldSlots(i) >= 0) { val p = find(oldKeys(i)); keys(p) = oldKeys(i); slots(p) = 0 }
        i += 1
      }
    }

    private def empty(cap: Int): Array[Int] = {
      val a = new Array[Int](cap); java.util.Arrays.fill(a, -1); a
    }

    /** The keys, ascending; each slot now holds its key's rank. */
    def rank(): Array[Long] = {
      val sorted = new Array[Long](size)
      var w = 0
      var i = 0
      while (i < keys.length) { if (slots(i) >= 0) { sorted(w) = keys(i); w += 1 }; i += 1 }
      java.util.Arrays.sort(sorted)
      i = 0
      while (i < size) { slots(find(sorted(i))) = i; i += 1 }
      sorted
    }

    /** Rank of `k`, which must have been added before [[rank]]. */
    @inline def rankOf(k: Long): Int = slots(find(k))
  }
}
