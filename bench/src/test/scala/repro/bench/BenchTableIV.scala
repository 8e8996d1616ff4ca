package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{CoverValidator, TopDown}
import repro.graphgen.Datasets

/** Reproduces paper Table IV — TDB++ cover size at k = 5 with and without
  * 2-cycles, and their ratio.
  *
  * Expected shape (paper): including 2-cycles inflates the cover by ~1.1×
  * to ~8.6× (average ≈ 3×), with the inflation largest on graphs rich in
  * reciprocated edges.
  */
class BenchTableIV extends AnyFunSuite {

  private val k = 5

  test("Table IV: cover size with and without 2-cycles, k=5") {
    val rows = Datasets.all.filterNot(_.heavyOnly).map { spec =>
      val g = Harness.loadGraph(spec)
      val no2 = Harness.time(TopDown.cover(g, k, minLen = 3))
      val with2 = Harness.time(TopDown.cover(g, k, minLen = 2))
      assert(CoverValidator.isValid(g, k, 2, with2.value.cover, fast = true),
        s"${spec.name}: with-2-cycle cover invalid")
      assert(with2.value.size >= no2.value.size, spec.name)
      val ratio =
        if (no2.value.size == 0) Double.NaN
        else with2.value.size.toDouble / no2.value.size
      Seq(spec.name, no2.value.size.toString, with2.value.size.toString, f"$ratio%.2f")
    }
    Harness.emit("TABLE IV", Harness.table(
      Seq("Name", "No 2-cycle", "With 2-cycle", "Ratio"), rows))
    assert(rows.nonEmpty)
  }
}
