package repro.bench

import repro.SparkSpec
import repro.dist.DistributedTDB
import repro.graphgen.{CorePeriphery, Datasets}

/** Scalability bench for the distributed TDB++ pipeline — the dataflow
  * counterpart of the paper's billion-scale claim (Table III's FLK/LJ/WKP/
  * TW rows, which only TDB++ completes).
  *
  * Reports, per heavy dataset: input size, cyclic-core size after the
  * distributed trim + closed-walk filter, cover size, and wall time. The
  * shape to reproduce: the bulk filter shrinks the graph by a large factor
  * before the exact top-down pass, which is what makes the heavy rows
  * feasible at all.
  */
class BenchDistributed extends SparkSpec {

  test("Distributed TDB++ on heavy datasets (k=5)") {
    import spark.implicits._
    val k = 5
    val rows = Datasets.all.filter(_.heavyOnly).map { spec =>
      val edges = CorePeriphery.pairs(spec.edges).toDF("src", "dst").cache()
      val m = edges.count()
      val t = Harness.time(DistributedTDB.cover(spark, edges, k))
      val r = t.value
      Seq(spec.name, m.toString, r.coreEdgeCount.toString,
          f"${100.0 * r.coreEdgeCount / math.max(1, m)}%.1f%%",
          r.result.size.toString, f"${t.millis / 1000.0}%.2f")
    }
    Harness.emit("DIST", Harness.table(
      Seq("Name", "|E|", "core |E|", "core %", "cover", "total s"), rows))
    assert(rows.nonEmpty)
  }
}
