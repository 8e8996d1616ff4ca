package repro.core

/** Result of a cover computation.
  *
  * @param cover  original vertex ids in the cover, ascending
  * @param stats  algorithm counters (search visits, filter prunes, ...)
  */
final case class CoverResult(cover: Array[Long], stats: Map[String, Long]) {
  def size: Int = cover.length
}

/** The contract every cover algorithm and cover check shares. */
object CoverResult {

  /** A constrained cycle has between `minLen` and `k` vertices, and a
    * 1-vertex cycle is a self-loop, which the graph never holds.
    */
  def requireBounds(k: Int, minLen: Int): Unit = {
    require(minLen >= 2, s"minimum cycle length minLen=$minLen must be at least 2")
    require(k >= minLen, s"hop constraint k=$k below minimum cycle length $minLen")
  }

  /** The cover of the vertex mask `present`, in which exactly the cover
    * vertices are false: their original ids, ascending.
    */
  def fromMask(g: DirectedGraph, present: Array[Boolean], stats: Map[String, Long]): CoverResult = {
    var size = 0
    var v = 0
    while (v < g.n) { if (!present(v)) size += 1; v += 1 }
    val ids = new Array[Long](size)
    var w = 0
    v = 0
    while (v < g.n) { if (!present(v)) { ids(w) = g.ids(v); w += 1 }; v += 1 }
    CoverResult(ids, stats)
  }
}
