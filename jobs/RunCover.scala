package repro.jobs

import repro.bench.Harness
import repro.graphgen.Datasets

/** Generic entrypoint: run one cover algorithm on one named synthetic
  * dataset. It starts no Spark.
  *
  * {{{
  * sbt "runMain repro.jobs.RunCover <dataset> <algo> <k> [minLen]"
  *   dataset ∈ Datasets.all (e.g. WKV-S)   algo ∈ DARC-DV|BUR|BUR+|TDB|TDB+|TDB++
  * }}}
  */
object RunCover {
  def main(args: Array[String]): Unit = {
    require(args.length >= 3, "usage: RunCover <dataset> <algo> <k> [minLen]")
    val Array(dataset, algo, kStr) = args.take(3)
    val minLen = if (args.length > 3) args(3).toInt else 3
    val g = Harness.loadGraph(Datasets.byName(dataset))
    println(s"[RunCover] dataset=$dataset n=${g.n} m=${g.m} algo=$algo k=$kStr minLen=$minLen")
    Harness.runAlgo(g, algo, kStr.toInt, minLen) match {
      case Harness.Done(res, ms) =>
        println(s"[RunCover] coverSize=${res.size} millis=$ms stats=${res.stats}")
      case Harness.Dnf(reason) =>
        println(s"[RunCover] DNF: $reason")
    }
  }
}
