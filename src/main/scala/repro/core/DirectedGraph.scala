package repro.core

import scala.collection.mutable

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

  /** Original id of internal vertex `v`. */
  def idOf(v: Int): Long = ids(v)

  @inline def foreachOut(v: Int)(f: Int => Unit): Unit = {
    var i = outOff(v); val end = outOff(v + 1)
    while (i < end) { f(outAdj(i)); i += 1 }
  }

  @inline def foreachIn(v: Int)(f: Int => Unit): Unit = {
    var i = inOff(v); val end = inOff(v + 1)
    while (i < end) { f(inAdj(i)); i += 1 }
  }

  /** Out-neighbours as an indexed slice, for searches that need early exit.
    * It allocates a tuple per call; hot kernels index `outOff` / `outAdj`
    * directly instead.
    */
  def outSlice(v: Int): (Array[Int], Int, Int) = (outAdj, outOff(v), outOff(v + 1))

  def edgeSeq: Seq[(Long, Long)] = {
    val b = Seq.newBuilder[(Long, Long)]
    var v = 0
    while (v < n) { foreachOut(v)(w => b += ((ids(v), ids(w)))); v += 1 }
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
    */
  def fromEdges(edges: Iterable[(Long, Long)]): DirectedGraph = {
    val idSet = mutable.TreeSet.empty[Long]
    edges.foreach { case (s, d) => idSet += s; idSet += d }
    val ids = idSet.toArray
    val idx = new mutable.HashMap[Long, Int]
    var i = 0
    while (i < ids.length) { idx(ids(i)) = i; i += 1 }
    val internal = edges.iterator
      .filter { case (s, d) => s != d }
      .map { case (s, d) => (idx(s), idx(d)) }
      .toArray
    buildCsr(ids.length, internal, ids)
  }

  /** Build from edges already on dense ids `0 until n` (ids map to themselves). */
  def fromInternal(n: Int, edges: Array[(Int, Int)]): DirectedGraph = {
    val ids = Array.tabulate(n)(_.toLong)
    buildCsr(n, edges.filter { case (s, d) => s != d }, ids)
  }

  private def buildCsr(n: Int, rawEdges: Array[(Int, Int)], ids: Array[Long]): DirectedGraph = {
    // Dedup via sort on encoded (src, dst).
    val enc = rawEdges.map { case (s, d) => (s.toLong << 32) | (d.toLong & 0xffffffffL) }
    java.util.Arrays.sort(enc)
    var mOut = 0
    var j = 0
    while (j < enc.length) {
      if (j == 0 || enc(j) != enc(j - 1)) mOut += 1
      j += 1
    }
    val src = new Array[Int](mOut)
    val dst = new Array[Int](mOut)
    var w = 0
    j = 0
    while (j < enc.length) {
      if (j == 0 || enc(j) != enc(j - 1)) {
        src(w) = (enc(j) >>> 32).toInt
        dst(w) = (enc(j) & 0xffffffffL).toInt
        w += 1
      }
      j += 1
    }
    val outOff = new Array[Int](n + 1)
    val inOff  = new Array[Int](n + 1)
    var e = 0
    while (e < mOut) { outOff(src(e) + 1) += 1; inOff(dst(e) + 1) += 1; e += 1 }
    var v = 0
    while (v < n) { outOff(v + 1) += outOff(v); inOff(v + 1) += inOff(v); v += 1 }
    val outAdj = new Array[Int](mOut)
    val inAdj  = new Array[Int](mOut)
    val outCur = java.util.Arrays.copyOf(outOff, n + 1)
    val inCur  = java.util.Arrays.copyOf(inOff, n + 1)
    e = 0
    while (e < mOut) {
      outAdj(outCur(src(e))) = dst(e); outCur(src(e)) += 1
      inAdj(inCur(dst(e))) = src(e); inCur(dst(e)) += 1
      e += 1
    }
    // enc sort already ordered out-adjacency per src ascending; in-adjacency
    // is filled in src order, which is ascending per dst as well.
    new DirectedGraph(n, ids, outOff, outAdj, inOff, inAdj)
  }
}
