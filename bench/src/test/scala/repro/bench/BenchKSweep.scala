package repro.bench

import repro.SparkSpec
import repro.graphgen.Datasets

/** Reproduces paper Figs. 6/7 (runtime and cover size while k varies 3..7)
  * and Figs. 8/9 (BUR vs BUR+ pruning effect) as tables, on the two
  * Fig. 8–10 datasets.
  *
  * Expected shape (paper): TDB++ fastest at every k, DARC-DV next, BUR+
  * slowest; BUR+ smallest cover, TDB++ within a few percent, DARC-DV
  * largest; BUR and BUR+ run alike but BUR+ covers are smaller.
  */
class BenchKSweep extends SparkSpec {

  test("Fig 6/7 table: runtime and cover size, k=3..7") {
    val ks = 3 to 7
    val rows = for {
      spec <- Datasets.speedup
      g = Harness.loadGraph(spark, spec)
      k <- ks
    } yield {
      val darc = Harness.runAlgo(g, "DARC-DV", k)
      val burp = Harness.runAlgo(g, "BUR+", k)
      val tdb = Harness.runAlgo(g, "TDB++", k)
      val cells = Seq(darc, burp, tdb).flatMap { o =>
        val (s, t) = Harness.fmtCell(o); Seq(s, t)
      }
      Seq(spec.name, k.toString) ++ cells
    }
    Harness.emit("FIG 6/7", Harness.table(
      Seq("Name", "k", "DARC-DV size", "DARC-DV s", "BUR+ size", "BUR+ s",
          "TDB++ size", "TDB++ s"), rows))
    assert(rows.nonEmpty)
  }

  test("Fig 8/9 table: BUR vs BUR+ pruning effect, k=3..6") {
    val ks = 3 to 6
    val rows = for {
      spec <- Datasets.speedup
      g = Harness.loadGraph(spark, spec)
      k <- ks
    } yield {
      val bur = Harness.runAlgo(g, "BUR", k)
      val burp = Harness.runAlgo(g, "BUR+", k)
      (bur, burp) match {
        case (d1: Harness.Done, d2: Harness.Done) =>
          assert(d2.size <= d1.size, s"${spec.name} k=$k")
        case _ => () // budget DNF rows print "-"
      }
      val cells = Seq(bur, burp).flatMap { o =>
        val (s, t) = Harness.fmtCell(o); Seq(s, t)
      }
      Seq(spec.name, k.toString) ++ cells
    }
    Harness.emit("FIG 8/9", Harness.table(
      Seq("Name", "k", "BUR size", "BUR s", "BUR+ size", "BUR+ s"), rows))
    assert(rows.nonEmpty)
  }
}
