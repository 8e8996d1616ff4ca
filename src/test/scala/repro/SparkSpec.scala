package repro

import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite

/** Base for the Spark suites: one local-mode SparkSession for the whole run.
  *
  * The driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (4g when it is unset). Broadcast joins are disabled,
  * so the joins of `repro.dist` take the shuffle path they take on inputs
  * too large to broadcast.
  */
trait SparkSpec extends AnyFunSuite {
  lazy val spark: SparkSession = SparkSpec.shared
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      // One shuffle partition per local core: the test inputs have at most
      // a few thousand edges, so more partitions only add tasks.
      .config("spark.sql.shuffle.partitions", Runtime.getRuntime.availableProcessors.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output that names the heap setting, master and
    // parallelism the Spark suites ran with.
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
