package repro.jobs

import repro.bench.Harness
import repro.core.TopDown
import repro.graphgen.Datasets

/** Calibration helper: prints per-dataset graph size, TDB++ cover size and
  * cover fraction at k=5 — used to tune the generators' forwardBias so the
  * cover-fraction regime matches the paper's Table III (a few % of |V|).
  */
object Calibrate {
  def main(args: Array[String]): Unit = {
    val k = if (args.nonEmpty) args(0).toInt else 5
    val only = if (args.length > 1) Some(args(1)) else None
    val withBase = args.length > 2 && args(2) == "baselines"
    for (spec <- Datasets.all if only.forall(_ == spec.name)) {
      val g = Harness.loadGraph(spec)
      val t = Harness.time(TopDown.cover(g, k))
      val extra = if (!withBase || spec.heavyOnly) "" else {
        def cell(algo: String) = Harness.runAlgo(g, algo, k) match {
          case d: Harness.Done => f"$algo=${d.size}%d/${d.millis / 1000.0}%.1fs"
          case Harness.Dnf(r)  => s"$algo=DNF($r)"
        }
        "  " + cell("BUR+") + "  " + cell("DARC-DV")
      }
      println(f"[CAL] ${spec.name}%-6s n=${g.n}%7d m=${g.m}%8d cover=${t.value.size}%7d " +
        f"frac=${100.0 * t.value.size / math.max(1, g.n)}%5.1f%% tdbpp=${t.millis / 1000.0}%7.2fs" + extra)
    }
  }
}
