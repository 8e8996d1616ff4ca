package perfbench

import org.scalatest.funsuite.AnyFunSuite

class GenSpec extends AnyFunSuite {
  private val shape = Workloads.FLK.scaled(16)

  test("one seed gives one edge set") {
    val one = Gen.edges(shape, 7)
    val again = Gen.edges(shape, 7)
    assert(java.util.Arrays.equals(one, again))
    assert(Gen.hash(again) == Gen.hash(one))
  }

  test("different seeds give different edge sets") {
    assert(Gen.hash(Gen.edges(shape, 1)) != Gen.hash(Gen.edges(shape, 2)))
  }

  test("edges are sorted, distinct, loop-free and inside the vertex range") {
    val edges = Gen.edges(shape, 3)
    assert(edges.length > shape.m * 9 / 10 && edges.length <= shape.m + 2 * shape.mRecip)
    var i = 0
    while (i < edges.length) {
      val (s, d) = (edges(i) >>> 32, edges(i) & 0xffffffffL)
      assert(s != d && s < shape.n && d < shape.n)
      if (i > 0) assert(edges(i - 1) < edges(i))
      i += 1
    }
  }
}
