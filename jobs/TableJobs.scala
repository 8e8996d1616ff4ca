package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.Harness
import repro.core.TopDown
import repro.dist.DistributedTDB
import repro.graphgen.{CorePeriphery, Datasets}

/** Standalone entrypoints, one per reproduced table. Each prints the same
  * rows as the corresponding bench suite (bench/src/test) — the suites are
  * the canonical reproduction path. Only [[DistCover]] starts Spark; the
  * others generate their data and search it in one plain JVM.
  */
object TableII {
  def main(args: Array[String]): Unit = {
    val rows = Datasets.all.map { spec =>
      val g = Harness.loadGraph(spec)
      Seq(spec.name, spec.mimics, spec.model, g.n.toString, g.m.toString,
          f"${if (g.n == 0) 0.0 else g.m.toDouble / g.n}%.1f")
    }
    Harness.emit("TABLE II",
      Harness.table(Seq("Name", "Mimics", "Model", "|V|", "|E|", "d_avg"), rows))
  }
}

object TableIII {
  def main(args: Array[String]): Unit = {
    val k = if (args.nonEmpty) args(0).toInt else 5
    val rows = Datasets.all.map { spec =>
      val g = Harness.loadGraph(spec)
      val outcomes = Seq("DARC-DV", "BUR+", "TDB++").map { algo =>
        if (spec.heavyOnly && algo != "TDB++") Harness.Dnf("heavy")
        else Harness.runAlgo(g, algo, k)
      }
      Seq(spec.name) ++ outcomes.flatMap { o =>
        val (s, t) = Harness.fmtCell(o); Seq(s, t)
      }
    }
    Harness.emit("TABLE III", Harness.table(
      Seq("Name", "DARC-DV size", "DARC-DV s", "BUR+ size", "BUR+ s",
          "TDB++ size", "TDB++ s"), rows))
  }
}

object TableIV {
  def main(args: Array[String]): Unit = {
    val k = if (args.nonEmpty) args(0).toInt else 5
    val rows = Datasets.all.filterNot(_.heavyOnly).map { spec =>
      val g = Harness.loadGraph(spec)
      val no2 = TopDown.cover(g, k, minLen = 3).size
      val with2 = TopDown.cover(g, k, minLen = 2).size
      Seq(spec.name, no2.toString, with2.toString,
          if (no2 == 0) "-" else f"${with2.toDouble / no2}%.2f")
    }
    Harness.emit("TABLE IV", Harness.table(
      Seq("Name", "No 2-cycle", "With 2-cycle", "Ratio"), rows))
  }
}

object Speedup {
  def main(args: Array[String]): Unit = {
    val rows = for {
      spec <- Datasets.speedup
      g = Harness.loadGraph(spec)
      k <- 3 to 7
    } yield {
      val t0 = Harness.time(TopDown.cover(g, k, 3, TopDown.TDB))
      val t1 = Harness.time(TopDown.cover(g, k, 3, TopDown.TDBPlus))
      val t2 = Harness.time(TopDown.cover(g, k, 3, TopDown.TDBPlusPlus))
      Seq(spec.name, k.toString, t0.value.size.toString,
          f"${t0.millis / 1000.0}%.2f", f"${t1.millis / 1000.0}%.2f",
          f"${t2.millis / 1000.0}%.2f")
    }
    Harness.emit("FIG 10", Harness.table(
      Seq("Name", "k", "size", "TDB s", "TDB+ s", "TDB++ s"), rows))
  }
}

/** spark-submit entrypoint for the distributed pipeline. */
object DistCover {
  def main(args: Array[String]): Unit = {
    val dataset = if (args.nonEmpty) args(0) else "LJ-S"
    val k = if (args.length > 1) args(1).toInt else 5
    val spark = SparkSession.builder.master(sys.env.getOrElse("SPARK_MASTER", "local[*]")).appName("DistCover").getOrCreate()
    import spark.implicits._
    try {
      val edges = CorePeriphery.pairs(Datasets.byName(dataset).edges).toDF("src", "dst").cache()
      val m = edges.count()
      val t = Harness.time(DistributedTDB.cover(spark, edges, k))
      println(s"[DistCover] dataset=$dataset |E|=$m core=${t.value.coreEdgeCount} " +
        s"cover=${t.value.result.size} millis=${t.millis}")
    } finally spark.stop()
  }
}
