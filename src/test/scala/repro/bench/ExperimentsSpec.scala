package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.bench.Experiments.CheckFailed
import repro.jobs.Tables
import repro.testkit.TestGraphs

/** Every Spark-free experiment on a tiny roster, with its built-in checks
  * (a failed one throws); DIST runs in `DistributedTDBSpec`.
  */
class ExperimentsSpec extends AnyFunSuite {

  private val roster = TestGraphs.tinyRoster
  private val names = roster.map(_.name)

  /** The experiment's table, after checking its header and its row keys. */
  private def check(t: Harness.Table, header: Seq[String], keys: Seq[Seq[String]]): Harness.Table = {
    assert(t.header == header)
    assert(t.rows.map(_.take(keys.head.length)) == keys)
    assert(t.rows.forall(_.length == header.length))
    t
  }

  private def sweep(ks: Range): Seq[Seq[String]] = for (n <- names; k <- ks) yield Seq(n, k.toString)

  test("Table II: one statistics row per dataset") {
    val t = check(Experiments.tableII(roster),
      Seq("Name", "Mimics", "Model", "|V|", "|E|", "d_avg"), names.map(Seq(_)))
    assert(t.rows.forall(r => r(3).toInt > 0 && r(3).toInt <= 300))
  }

  test("Table III: checked covers; heavy rows log their DNF reason") {
    val heavy = roster.head +: roster.tail.map(_.copy(heavyOnly = true))
    val t = check(Experiments.tableIII(heavy), Seq("Name", "|V|", "|E|", "DARC-DV size", "DARC-DV s",
      "BUR+ size", "BUR+ s", "TDB++ size", "TDB++ s"), names.map(Seq(_)))
    assert(!t.rows.head.contains("-"))
    assert(t.rows(1).slice(3, 7) == Seq("-", "-", "-", "-"))
    assert(t.dnfs == Seq("DNF WGO-S DARC-DV k=5: heavy: TDB++-only", "DNF WGO-S BUR+ k=5: heavy: TDB++-only"))
  }

  test("Table IV: with-2-cycle covers are checked and never smaller") {
    val t = check(Experiments.tableIV(roster), Seq("Name", "No 2-cycle", "With 2-cycle", "Ratio"),
      names.map(Seq(_)))
    assert(t.rows.forall(r => r(2).toInt >= r(1).toInt))
  }

  test("Figs. 6-10: one row per dataset and k, none of them DNF") {
    val tables = Seq(
      check(Experiments.fig67(roster), Seq("Name", "k", "DARC-DV size", "DARC-DV s", "BUR+ size",
        "BUR+ s", "TDB++ size", "TDB++ s"), sweep(3 to 7)),
      check(Experiments.fig89(roster), Seq("Name", "k", "BUR size", "BUR s", "BUR+ size", "BUR+ s"),
        sweep(3 to 6)),
      check(Experiments.fig10(roster), Seq("Name", "k", "size", "TDB s", "TDB+ s", "TDB++ s",
        "bfs-pruned"), sweep(3 to 7)))
    for (t <- tables) assert(t.dnfs.isEmpty && t.rows.forall(!_.contains("-")), t.tag)
  }

  test("an empty roster fails its table") {
    val e = intercept[CheckFailed](Experiments.tableII(Nil))
    assert(e.getMessage.contains("TABLE II"))
  }

  test("the cover check names the dataset, the algorithm and k") {
    val invalid = intercept[CheckFailed] {
      Experiments.checkCover(TestGraphs.triangle, "TRI", "TDB++", 3, Array.empty, minimal = true)
    }
    assert(invalid.getMessage == "TRI TDB++ k=3: cover invalid at minLen 3")
    val g = TestGraphs.figure1
    val notMinimal = intercept[CheckFailed] {
      Experiments.checkCover(g, "FIG1", "BUR+", 5, g.ids, minimal = true)
    }
    assert(notMinimal.getMessage == "FIG1 BUR+ k=5: cover not minimal at minLen 3")
    Experiments.checkCover(g, "FIG1", "BUR+", 5, Array(0L), minimal = true)
  }

  test("Tables rejects an unknown experiment and lists the known ones") {
    val e = intercept[IllegalArgumentException](Tables.main(Array("table2", "table9")))
    assert(e.getMessage.contains("table2 table9") &&
      e.getMessage.contains("known: table2 table3 table4 fig6-7 fig8-9 fig10 dist"), e.getMessage)
  }
}
