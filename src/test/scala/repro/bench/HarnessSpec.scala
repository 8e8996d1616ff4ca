package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.bench.Experiments.{Dnf, DnfLog, Done, Table}
import repro.core.{BottomUp, CoverResult, CoverValidator, SearchBudget}
import repro.testkit.TestGraphs

/** The plumbing every experiment shares: timing, the checked runner [[Experiments.run]],
  * DNF cells and table rendering.
  */
class HarnessSpec extends AnyFunSuite {

  test("time measures and returns the value") {
    val t = Experiments.time { (1 to 100).sum }
    assert(t.value == 5050)
    assert(t.millis >= 0)
  }

  test("run dispatches every algorithm name") {
    val g = TestGraphs.figure1
    for (algo <- Seq("DARC-DV", "BUR", "BUR+", "TDB", "TDB+", "TDB++")) {
      Experiments.run("FIG1", g, algo, k = 5) match {
        case d: Done => assert(d.size >= 1, algo)
        case Dnf(r)  => fail(s"$algo DNF: $r")
      }
    }
  }

  test("run rejects unknown algorithms") {
    intercept[IllegalArgumentException] {
      Experiments.run("TRI", TestGraphs.triangle, "NOPE", 3)
    }
  }

  test("run demands minimality of BUR+ but not of BUR") {
    val spec = TestGraphs.tinyRoster.head
    val g = Experiments.loadGraph(spec)
    // BUR's cover of this row is valid but has a redundant vertex.
    val bur = Experiments.run(spec.name, g, "BUR", 5)
    assert(bur.done.exists(d => !CoverValidator.isMinimal(g, 5, 3, d.result.cover)), bur)
    assert(Experiments.run(spec.name, g, "BUR+", 5).done.nonEmpty)
  }

  test("DARC-DV arc explosion surfaces as DNF") {
    // 100,010,000 line arcs, just over DARC-DV's fixed cap of 1e8
    assert(Experiments.run("HUB", TestGraphs.hub(10000), "DARC-DV", 5) == Dnf("line graph 100010000 arcs"))
  }

  test("DnfLog.cells renders sizes and DNFs") {
    val twelve = CoverResult(Array.tabulate(12)(_.toLong), Map.empty)
    val dnfs = new DnfLog
    assert(dnfs.cells("D", "A", 5, Done(twelve, 1500)) == Seq("12", "1.50"))
    assert(dnfs.cells("D", "A", 5, Dnf("too big")) == Seq("-", "-"))
  }

  test("a DNF cell renders \"-\" and prints its reason after the table") {
    val dnfs = new DnfLog
    val o = Experiments.outcomeOf(BottomUp.cover(TestGraphs.figure1, 5, budget = new SearchBudget(1)))
    val cells = dnfs.cells("FIG1", "BUR", 5, o)
    assert(cells == Seq("-", "-"))
    val out = new java.io.ByteArrayOutputStream
    Console.withOut(out) {
      Experiments.emit(Table("T", Seq("Name", "BUR size", "BUR s"), Seq("FIG1" +: cells), dnfs.result))
    }
    val lines = out.toString.linesIterator.toSeq
    assert(lines.length == 4 && lines.take(3).forall(_.startsWith("[T] |")), lines)
    assert(lines(3) == "[T] DNF FIG1 BUR k=5: budget 1 visits")
  }

  test("table renders aligned rows") {
    val t = Experiments.table(Seq("a", "bb"), Seq(Seq("1", "2"), Seq("33", "4")))
    val lines = t.linesIterator.toSeq
    assert(lines.length == 4)
    assert(lines.map(_.length).distinct.size == 1) // all same width
  }
}
