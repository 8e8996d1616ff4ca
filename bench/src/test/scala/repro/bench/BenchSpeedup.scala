package repro.bench

import repro.SparkSpec
import repro.core.TopDown
import repro.graphgen.Datasets

/** Reproduces paper Fig. 10 (Top-Down technique speed-ups) as a table:
  * runtime of TDB, TDB+ and TDB++ while k varies from 3 to 7 on the two
  * Fig. 10 datasets (WKV and WGO stand-ins).
  *
  * Expected shape (paper): all variants produce identical covers; TDB+
  * beats TDB via the block technique; TDB++ adds the BFS-filter, whose
  * advantage grows with k. Plain TDB may exhaust the search budget at
  * large k (printed "-"), which is itself the paper's point.
  */
class BenchSpeedup extends SparkSpec {

  test("Fig 10 table: Top-Down technique speed-ups, k=3..7") {
    val ks = 3 to 7
    val rows = for {
      spec <- Datasets.speedup
      g = Harness.loadGraph(spark, spec)
      k <- ks
    } yield {
      val t0 = Harness.runAlgo(g, "TDB", k)
      val t1 = Harness.time(TopDown.cover(g, k, 3, TopDown.TDBPlus))
      val t2 = Harness.time(TopDown.cover(g, k, 3, TopDown.TDBPlusPlus))
      assert(t1.value.cover.toSeq == t2.value.cover.toSeq, s"${spec.name} k=$k TDB+ vs TDB++")
      t0 match {
        case d: Harness.Done =>
          assert(d.size == t1.value.size, s"${spec.name} k=$k TDB vs TDB+ size")
        case _ => () // budget DNF: nothing to compare
      }
      val (s0, time0) = Harness.fmtCell(t0)
      Seq(spec.name, k.toString, t1.value.size.toString,
          time0, f"${t1.millis / 1000.0}%.2f", f"${t2.millis / 1000.0}%.2f",
          t2.value.stats("bfsPruned").toString)
    }
    Harness.emit("FIG 10", Harness.table(
      Seq("Name", "k", "size", "TDB s", "TDB+ s", "TDB++ s", "bfs-pruned"), rows))
    assert(rows.nonEmpty)
  }
}
