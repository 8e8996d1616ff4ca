package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{BottomUp, CoverResult, SearchBudget}
import repro.testkit.TestGraphs

class HarnessSpec extends AnyFunSuite {

  test("time measures and returns the value") {
    val t = Harness.time { (1 to 100).sum }
    assert(t.value == 5050)
    assert(t.millis >= 0)
  }

  test("runAlgo dispatches every algorithm name") {
    val g = TestGraphs.figure1
    for (algo <- Seq("DARC-DV", "BUR", "BUR+", "TDB", "TDB+", "TDB++")) {
      Harness.runAlgo(g, algo, k = 5) match {
        case d: Harness.Done => assert(d.size >= 1, algo)
        case Harness.Dnf(r)  => fail(s"$algo DNF: $r")
      }
    }
  }

  test("runAlgo rejects unknown algorithms") {
    intercept[IllegalArgumentException] {
      Harness.runAlgo(TestGraphs.triangle, "NOPE", 3)
    }
  }

  test("DARC-DV arc explosion surfaces as DNF") {
    val g = TestGraphs.random(20, 100, seed = 1)
    // run via outcomeOf with an impossible budget
    val o = Harness.outcomeOf(repro.darc.DarcDV.cover(g, 5, maxArcs = 1))
    assert(o.isInstanceOf[Harness.Dnf])
  }

  test("fmtCell renders sizes and DNFs") {
    val twelve = CoverResult(Array.tabulate(12)(_.toLong), Map.empty)
    assert(Harness.fmtCell(Harness.Done(twelve, 1500)) == ("12", "1.50"))
    assert(Harness.fmtCell(Harness.Dnf("too big")) == ("-", "-"))
  }

  test("a DNF cell renders \"-\" and prints its reason after the table") {
    val dnfs = new Harness.DnfLog
    val o = Harness.outcomeOf(BottomUp.cover(TestGraphs.figure1, 5, budget = new SearchBudget(1)))
    val cells = dnfs.cells("FIG1", "BUR", 5, o)
    assert(cells == Seq("-", "-"))
    val out = new java.io.ByteArrayOutputStream
    Console.withOut(out) {
      Harness.emit(Harness.Table("T", Seq("Name", "BUR size", "BUR s"), Seq("FIG1" +: cells), dnfs.result))
    }
    val lines = out.toString.linesIterator.toSeq
    assert(lines.length == 4 && lines.take(3).forall(_.startsWith("[T] |")), lines)
    assert(lines(3) == "[T] DNF FIG1 BUR k=5: budget 1 visits")
  }

  test("table renders aligned rows") {
    val t = Harness.table(Seq("a", "bb"), Seq(Seq("1", "2"), Seq("33", "4")))
    val lines = t.linesIterator.toSeq
    assert(lines.length == 4)
    assert(lines.map(_.length).distinct.size == 1) // all same width
  }
}
