package perfbench

import org.apache.logging.log4j.Level
import org.apache.logging.log4j.core.config.Configurator
import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageCompleted, SparkListenerTaskEnd}
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{DirectedGraph, TopDown}
import repro.dist.{ClosedWalkFilter, DistributedTDB}

/** The `repro.dist` layer: `DistributedTDB.cover` on a local session, run
  * in the traced run of a workload that asks for it. It gives per-layer
  * metrics only: on a 4-vCPU VM one call's time (about 5 s, almost all of
  * it fixed cost per Spark job) spread too far from run to run to carry an
  * end-to-end bound.
  */
object Dist {
  import Main._

  val Master = "local[4]"
  val Parallelism = 4
  /** WKV-S shape at half size: 750 vertices, about 20 k edges. */
  val Shape: Shape = Workloads.WKV.scaled(2)
  /** Warm-up cover calls. The JIT keeps compiling Spark's planning code
    * over the first calls: in one JVM the first three took 9.8, 4.6 and
    * 3.8 s on one small graph.
    */
  val WarmCoverReps = 2
  val CoverReps = 2

  /** Jobs, stages, tasks and shuffle bytes seen since the last reset. */
  final class Counts extends SparkListener {
    @volatile var jobs, stages, tasks, shuffleBytes = 0L
    def reset(): Unit = { jobs = 0; stages = 0; tasks = 0; shuffleBytes = 0 }
    override def onJobStart(e: SparkListenerJobStart): Unit = jobs += 1
    override def onStageCompleted(e: SparkListenerStageCompleted): Unit = stages += 1
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
      tasks += 1
      if (e.taskMetrics != null) shuffleBytes += e.taskMetrics.shuffleWriteMetrics.bytesWritten
    }
  }

  /** Spark defaults, except: fixed master and parallelism, no UI, WARN
    * logging, loopback address, and scratch space in the build directory.
    */
  private def session(dir: String): SparkSession = {
    Configurator.setRootLevel(Level.WARN)
    val s = SparkSession.builder.master(Master).appName("perfbench")
      .config("spark.default.parallelism", Parallelism.toLong)
      .config("spark.sql.shuffle.partitions", Parallelism.toLong)
      .config("spark.ui.enabled", value = false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.local.dir", s"$dir/spark-local")
      .config("spark.sql.warehouse.dir", s"$dir/spark-warehouse")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  /** The edge list as a materialised DataFrame(src, dst). */
  private def input(spark: SparkSession, pairs: Seq[(Long, Long)]): DataFrame =
    spark.createDataFrame(pairs).toDF("src", "dst").localCheckpoint()

  /** The dist layer's metrics on a graph of [[Shape]] from the run's seed.
    * The gate: every cover equals sequential TDB++ on the same graph, which
    * passes the check.
    */
  def layer(args: Args, report: Report, tr: Tracer): Unit = {
    val pairs = Gen.pairs(Gen.edges(Shape, args.seed))
    val g = DirectedGraph.fromEdges(pairs)
    val reference = report.op("sequential TDB++ for dist")(TopDown.cover(g, K, MinLen, TopDown.TDBPlusPlus))(
      ref => check(g, ref.cover))
    if (reference.isEmpty) return

    val spark = session(s"${args.out}/spark")
    try {
      // Warm-up: the same calls on a graph of the same shape from another seed.
      val warmDf = input(spark, Gen.pairs(Gen.edges(Shape, Gen.mix64(args.seed ^ 0x5eed))))
      for (_ <- 1 to WarmCoverReps) DistributedTDB.cover(spark, warmDf, K)
      ClosedWalkFilter.trim(warmDf).count()
      ClosedWalkFilter.candidates(warmDf, K).count()

      val df = input(spark, pairs)
      val counts = new Counts
      spark.sparkContext.addSparkListener(counts)
      for (_ <- 1 to CoverReps) {
        counts.reset()
        report.op("DistributedTDB.cover")(tr("dist.cover")(DistributedTDB.cover(spark, df, K))) { dc =>
          ListenerBusDrain(spark.sparkContext)
          report.add("dist.core_edges", "edges", dc.coreEdgeCount)
          report.add("dist.core_vertices", "vertices", dc.coreVertices)
          report.add("dist.jobs", "count", counts.jobs)
          report.add("dist.stages", "count", counts.stages)
          report.add("dist.tasks", "count", counts.tasks)
          report.add("dist.shuffle_write_mb", "MB", counts.shuffleBytes / MB)
          java.util.Arrays.equals(reference.get.cover, dc.result.cover)
        }
      }
      report.op("ClosedWalkFilter.trim")(tr("dist.trim")(ClosedWalkFilter.trim(df).count())) { n =>
        report.add("dist.trim_edges_out", "edges", n); true
      }
      report.op("ClosedWalkFilter.candidates")(
        tr("dist.candidates")(ClosedWalkFilter.candidates(df, K).count())) { n =>
        report.add("dist.candidates_out", "vertices", n); true
      }
    } finally spark.stop()

    spanSamples(report, tr, "dist.cover", "dist.cover_s")
    spanSamples(report, tr, "dist.trim", "dist.trim_s")
    spanSamples(report, tr, "dist.candidates", "dist.candidates_s")
    val (cover, candidates) = (tr.seconds("dist.cover"), tr.seconds("dist.candidates"))
    // Derived, not measured: the cover call minus its filter part.
    if (cover.nonEmpty && candidates.nonEmpty)
      report.add("dist.collect_exact_s", "s", Report.median(cover) - Report.median(candidates))
  }
}
