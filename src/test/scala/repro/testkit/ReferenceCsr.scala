package repro.testkit

import scala.collection.mutable

/** Reference CSR build with boxed collections: a `TreeSet` of ids, a
  * `HashMap` from id to index and a tuple per edge. It is the plain way to
  * write what `DirectedGraph.fromEdges` does with primitive arrays, kept
  * apart from it so the two can be compared array by array.
  */
object ReferenceCsr {

  final case class Csr(ids: Array[Long], outOff: Array[Int], outAdj: Array[Int],
                       inOff: Array[Int], inAdj: Array[Int])

  /** Ascending ids (self-loop endpoints included), self-loops dropped,
    * parallel edges merged, out-lists ascending by target and in-lists
    * ascending by source.
    */
  def build(edges: Iterable[(Long, Long)]): Csr = {
    val idSet = mutable.TreeSet.empty[Long]
    edges.foreach { case (s, d) => idSet += s; idSet += d }
    val ids = idSet.toArray
    val idx = new mutable.HashMap[Long, Int]
    ids.indices.foreach(i => idx(ids(i)) = i)
    val internal = edges.iterator
      .filter { case (s, d) => s != d }
      .map { case (s, d) => (idx(s), idx(d)) }
      .toArray
      .distinct
      .sorted
    val n = ids.length
    val outOff = new Array[Int](n + 1)
    val inOff = new Array[Int](n + 1)
    internal.foreach { case (s, d) => outOff(s + 1) += 1; inOff(d + 1) += 1 }
    for (v <- 0 until n) { outOff(v + 1) += outOff(v); inOff(v + 1) += inOff(v) }
    val outAdj = internal.map(_._2)
    val inAdj = internal.sortBy { case (s, d) => (d, s) }.map(_._1)
    Csr(ids, outOff, outAdj, inOff, inAdj)
  }
}
