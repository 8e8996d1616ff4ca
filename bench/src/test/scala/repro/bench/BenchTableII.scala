package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.graphgen.Datasets

/** Reproduces paper Table II — dataset statistics (|V|, |E|, d_avg).
  *
  * The paper lists 16 SNAP/KONECT graphs up to Twitter (1.47B edges); the
  * offline substitute roster is 8 synthetic stand-ins at reduced scale
  * (DESIGN.md § dataset substitutions). This bench prints the realised
  * statistics after self-loop/duplicate removal so EXPERIMENTS.md can put
  * them next to the paper's Table II.
  */
class BenchTableII extends AnyFunSuite {

  test("Table II: dataset statistics") {
    val rows = Datasets.all.map { spec =>
      val g = Harness.loadGraph(spec)
      val dAvg = if (g.n == 0) 0.0 else g.m.toDouble / g.n
      Seq(spec.name, spec.mimics, spec.model, g.n.toString, g.m.toString, f"$dAvg%.1f")
    }
    Harness.emit("TABLE II",
      Harness.table(Seq("Name", "Mimics", "Model", "|V|", "|E|", "d_avg"), rows))
    assert(rows.nonEmpty)
  }
}
