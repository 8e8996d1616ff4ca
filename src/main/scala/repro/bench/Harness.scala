package repro.bench

import repro.core.{BottomUp, CoverResult, DirectedGraph, SearchBudget, TopDown}
import repro.darc.DarcDV
import repro.graphgen.{CorePeriphery, DatasetSpec}

import scala.collection.immutable.ArraySeq

/** Shared plumbing of the paper experiments ([[Experiments]]) and the jobs:
  * dataset loading, timing, DNF handling, and aligned ASCII table
  * rendering. All rows are also echoed with a `[TABLE x]` prefix so
  * EXPERIMENTS.md numbers can be regenerated by grepping the log.
  */
object Harness {

  final case class Timed[T](value: T, millis: Long)

  def time[T](body: => T): Timed[T] = {
    val t0 = System.nanoTime()
    val v = body
    Timed(v, (System.nanoTime() - t0) / 1000000L)
  }

  /** Generate a dataset's edges and build the in-memory CSR graph from a
    * lazy, sized view of them: no array of pairs is held.
    */
  def loadGraph(spec: DatasetSpec): DirectedGraph =
    DirectedGraph.fromEdges(
      ArraySeq.unsafeWrapArray(spec.edges).view.map(e => (CorePeriphery.src(e), CorePeriphery.dst(e))))

  sealed trait Outcome {
    def done: Option[Done] = this match { case d: Done => Some(d); case _: Dnf => None }
  }
  /** A finished run keeps its whole result, so an experiment can check the cover. */
  final case class Done(result: CoverResult, millis: Long) extends Outcome {
    def size: Int = result.size
  }
  final case class Dnf(reason: String) extends Outcome

  /** Visit budget for the worst-case-exponential searches, so a blow-up in
    * a baseline prints "-" (like the paper's dashes) instead of hanging the
    * bench. The default of 1e10 visits costs about 15 minutes per DNF cell
    * (two DARC-DV k = 7 cells of Fig. 6/7 at BENCH_SCALE=0.25 took about
    * 1,790 s on a 4-vCPU VM). Override with BENCH_BUDGET. TDB+/TDB++ are
    * O(k·m) per validation and need none.
    */
  def searchBudget: SearchBudget =
    new SearchBudget(sys.env.get("BENCH_BUDGET").map(_.toLong).getOrElse(10_000_000_000L))

  /** Runs `body`; a run stops as a DNF for exactly two reasons, its visit
    * budget or DARC-DV's line-graph arc cap. Any other failure propagates.
    */
  def outcomeOf(body: => CoverResult): Outcome =
    try {
      val t = time(body)
      Done(t.value, t.millis)
    } catch {
      case e: DarcDV.TooLargeException => Dnf(s"line graph ${e.arcs} arcs")
      case e: SearchBudget.Exceeded    => Dnf(s"budget ${e.limit} visits")
    }

  def runAlgo(g: DirectedGraph, algo: String, k: Int, minLen: Int = 3): Outcome = algo match {
    case "DARC-DV" => outcomeOf(DarcDV.cover(g, k, minLen, budget = searchBudget))
    case "BUR"     => outcomeOf(BottomUp.cover(g, k, minLen, minimalPrune = false, budget = searchBudget))
    case "BUR+"    => outcomeOf(BottomUp.cover(g, k, minLen, minimalPrune = true, budget = searchBudget))
    case "TDB"     => outcomeOf(TopDown.cover(g, k, minLen, TopDown.TDB, budget = searchBudget))
    case "TDB+"    => outcomeOf(TopDown.cover(g, k, minLen, TopDown.TDBPlus))
    case "TDB++"   => outcomeOf(TopDown.cover(g, k, minLen, TopDown.TDBPlusPlus))
    case other     => throw new IllegalArgumentException(s"unknown algorithm $other")
  }

  /** The "-" cells of one table, each kept with the reason its run did not finish. */
  final class DnfLog {
    private val lines = Seq.newBuilder[String]

    /** The size and seconds cells of one run; a DNF also logs its reason. */
    def cells(dataset: String, algo: String, k: Int, o: Outcome): Seq[String] = o match {
      case d: Done => Seq(d.size.toString, f"${d.millis / 1000.0}%.2f")
      case Dnf(reason) =>
        lines += s"DNF $dataset $algo k=$k: $reason"
        Seq("-", "-")
    }

    def result: Seq[String] = lines.result()
  }

  /** One experiment's output: the header and rows of its `[tag]` table, and
    * one `DNF <dataset> <algo> k=<k>: <reason>` line per run shown as "-".
    */
  final case class Table(tag: String, header: Seq[String], rows: Seq[Seq[String]], dnfs: Seq[String])

  /** Render rows as an aligned ASCII table. */
  def table(headers: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = headers +: rows
    val widths = headers.indices.map(i => all.map(_(i).length).max)
    def line(r: Seq[String]) =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (line(headers) +: sep +: rows.map(line)).mkString("\n")
  }

  /** Echo a table, then its DNF lines, with a grep-friendly tag on every line. */
  def emit(t: Table): Unit =
    (table(t.header, t.rows).linesIterator ++ t.dnfs).foreach(l => println(s"[${t.tag}] $l"))
}
