package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.Experiments
import repro.graphgen.Datasets

/** Regenerate the paper's tables: each named experiment of
  * [[repro.bench.Experiments]] on the roster its table reports. Only `dist`
  * starts Spark.
  *
  * {{{
  * sbt "runMain repro.jobs.Tables <name>… | all"
  *   name ∈ table2 table3 table4 fig6-7 fig8-9 fig10 dist
  * }}}
  */
object Tables {

  private val experiments: Seq[(String, () => Any)] = Seq(
    "table2" -> (() => Experiments.tableII(Datasets.all)),
    "table3" -> (() => Experiments.tableIII(Datasets.all)),
    "table4" -> (() => Experiments.tableIV(Datasets.all.filterNot(_.heavyOnly))),
    "fig6-7" -> (() => Experiments.fig67(Datasets.speedup)),
    "fig8-9" -> (() => Experiments.fig89(Datasets.speedup)),
    "fig10"  -> (() => Experiments.fig10(Datasets.speedup)),
    "dist"   -> { () =>
      val spark = SparkSession.builder().master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
        .appName("Tables").getOrCreate()
      try Experiments.dist(spark, Datasets.all.filter(_.heavyOnly)) finally spark.stop()
    },
  )

  def main(args: Array[String]): Unit = {
    val known = experiments.map(_._1)
    val names = if (args.sameElements(Seq("all"))) known else args.toSeq
    require(names.nonEmpty && names.forall(known.contains),
      s"unknown experiment in '${names.mkString(" ")}'; usage: Tables <name>… | all; " +
        s"known: ${known.mkString(" ")}")
    names.foreach(experiments.toMap.apply(_)())
  }
}
