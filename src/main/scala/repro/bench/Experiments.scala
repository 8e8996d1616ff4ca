package repro.bench

import org.apache.spark.sql.SparkSession
import repro.core.{BottomUp, CoverResult, CoverValidator, DirectedGraph, SearchBudget, TopDown}
import repro.darc.DarcDV
import repro.dist.DistributedTDB
import repro.graphgen.{CorePeriphery, DatasetSpec}

import scala.collection.immutable.ArraySeq

/** The paper's experiments, each defined once: Tables II–IV, Figs. 6–10 in
  * table form, and the distributed pipeline's scalability table (DIST).
  *
  * Each function runs on the roster it is given, prints its `[TAG]` table
  * and DNF lines, and returns the table. Every sequential cover comes from
  * [[run]], which checks it before any cell shows it, and DIST checks its
  * distributed cover the same way, so a fast-but-wrong run cannot set a
  * table's numbers: a failed check throws [[CheckFailed]] naming the
  * dataset, the algorithm and k, and a table without rows throws too.
  * Every line is echoed with a `[TAG]` prefix, so EXPERIMENTS.md numbers
  * can be regenerated by grepping the log.
  */
object Experiments {

  final class CheckFailed(msg: String) extends RuntimeException(msg)

  private def ensure(ok: Boolean, dataset: String, algo: String, k: Int, what: => String): Unit =
    if (!ok) throw new CheckFailed(s"$dataset $algo k=$k: $what")

  /** The fast checker's verdict: the cover breaks every cycle of length
    * minLen..k, and, if `minimal`, every cover vertex is needed.
    */
  def checkCover(g: DirectedGraph, dataset: String, algo: String, k: Int, cover: Array[Long],
                 minimal: Boolean, minLen: Int = 3): Unit = {
    ensure(CoverValidator.isValid(g, k, minLen, cover, fast = true), dataset, algo, k,
      s"cover invalid at minLen $minLen")
    if (minimal)
      ensure(CoverValidator.isMinimal(g, k, minLen, cover, fast = true), dataset, algo, k,
        s"cover not minimal at minLen $minLen")
  }

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
  /** A finished run keeps its whole result, so an experiment can compare covers. */
  final case class Done(result: CoverResult, millis: Long) extends Outcome {
    def size: Int = result.size
  }
  final case class Dnf(reason: String) extends Outcome

  /** Visit budget of each worst-case-exponential run (BUR, BUR+, TDB,
    * DARC-DV), so a blow-up prints "-" (like the paper's dashes) instead of
    * hanging the run. One budget DNF costs about 15 minutes (two DARC-DV
    * k = 7 cells of Fig. 6/7 at BENCH_SCALE=0.25 took about 1,790 s on a
    * 4-vCPU VM). TDB+/TDB++ are O(k·m) per validation and need none.
    */
  private val VisitBudget = 10_000_000_000L

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

  /** One table cell's run of `algo` on `dataset`'s graph `g`. A finished
    * cover is checked, outside its timed span, before it is returned: every
    * cover must be valid, and BUR+, TDB, TDB+ and TDB++ covers also minimal
    * (Alg. 7, Thm. 7). BUR's is only valid, and so is DARC-DV's, which maps
    * an edge-minimal line-graph transversal back to vertices.
    */
  def run(dataset: String, g: DirectedGraph, algo: String, k: Int, minLen: Int = 3): Outcome = {
    def budget = new SearchBudget(VisitBudget)
    val o = outcomeOf(algo match {
      case "DARC-DV" => DarcDV.cover(g, k, minLen, budget = budget)
      case "BUR"     => BottomUp.cover(g, k, minLen, minimalPrune = false, budget = budget)
      case "BUR+"    => BottomUp.cover(g, k, minLen, minimalPrune = true, budget = budget)
      case "TDB"     => TopDown.cover(g, k, minLen, TopDown.TDB, budget = budget)
      case "TDB+"    => TopDown.cover(g, k, minLen, TopDown.TDBPlus)
      case "TDB++"   => TopDown.cover(g, k, minLen, TopDown.TDBPlusPlus)
      case other     => throw new IllegalArgumentException(s"unknown algorithm $other")
    })
    for (d <- o.done)
      checkCover(g, dataset, algo, k, d.result.cover, minimal = algo != "BUR" && algo != "DARC-DV", minLen)
    o
  }

  /** The "-" cells of one table, each kept with the reason its run did not finish. */
  final class DnfLog {
    private val lines = Seq.newBuilder[String]

    /** The size and seconds cells of one run; a DNF also logs its reason. */
    def cells(dataset: String, algo: String, k: Int, o: Outcome): Seq[String] = o match {
      case d: Done => Seq(d.size.toString, secs(d.millis))
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

  private def secs(millis: Long): String = f"${millis / 1000.0}%.2f"

  private def finish(tag: String, header: Seq[String], rows: Seq[Seq[String]],
                     dnfs: DnfLog = new DnfLog): Table = {
    if (rows.isEmpty) throw new CheckFailed(s"$tag: no rows")
    val t = Table(tag, header, rows, dnfs.result)
    emit(t)
    t
  }

  /** Table II: dataset statistics after self-loop and duplicate removal. */
  def tableII(specs: Seq[DatasetSpec]): Table = {
    val rows = specs.map { spec =>
      val g = loadGraph(spec)
      val dAvg = if (g.n == 0) 0.0 else g.m.toDouble / g.n
      Seq(spec.name, spec.mimics, spec.model, g.n.toString, g.m.toString, f"$dAvg%.1f")
    }
    finish("TABLE II", Seq("Name", "Mimics", "Model", "|V|", "|E|", "d_avg"), rows)
  }

  /** Table III: cover size and time of DARC-DV, BUR+ and TDB++ at k = 5.
    * Heavy rows run TDB++ only, like the paper's dashes.
    */
  def tableIII(specs: Seq[DatasetSpec]): Table = {
    val k = 5
    val dnfs = new DnfLog
    val rows = specs.map { spec =>
      val g = loadGraph(spec)
      val cells = Seq("DARC-DV", "BUR+", "TDB++").flatMap { algo =>
        val o =
          if (spec.heavyOnly && algo != "TDB++") Dnf("heavy: TDB++-only")
          else run(spec.name, g, algo, k)
        dnfs.cells(spec.name, algo, k, o)
      }
      Seq(spec.name, g.n.toString, g.m.toString) ++ cells
    }
    finish("TABLE III", Seq("Name", "|V|", "|E|", "DARC-DV size", "DARC-DV s", "BUR+ size",
      "BUR+ s", "TDB++ size", "TDB++ s"), rows, dnfs)
  }

  /** Table IV: TDB++ cover size at k = 5 without and with 2-cycles. The
    * with-2-cycle cover must be no smaller.
    */
  def tableIV(specs: Seq[DatasetSpec]): Table = {
    val k = 5
    val rows = specs.map { spec =>
      val g = loadGraph(spec)
      // TDB++ has no visit budget, so both runs finish.
      val Seq(no2, with2) = Seq(3, 2).map(minLen => run(spec.name, g, "TDB++", k, minLen).done.get.size)
      ensure(with2 >= no2, spec.name, "TDB++", k, s"$with2 vertices with 2-cycles, fewer than $no2 without")
      val ratio = if (no2 == 0) Double.NaN else with2.toDouble / no2
      Seq(spec.name, no2.toString, with2.toString, f"$ratio%.2f")
    }
    finish("TABLE IV", Seq("Name", "No 2-cycle", "With 2-cycle", "Ratio"), rows)
  }

  /** Runs `row` for every k of `ks` on every dataset, loading each graph once. */
  private def sweep(specs: Seq[DatasetSpec], ks: Range)(
      row: (DatasetSpec, DirectedGraph, Int) => Seq[String]): Seq[Seq[String]] =
    for (spec <- specs; g = loadGraph(spec); k <- ks)
      yield Seq(spec.name, k.toString) ++ row(spec, g, k)

  /** Figs. 6/7: cover size and time of DARC-DV, BUR+ and TDB++, k = 3..7. */
  def fig67(specs: Seq[DatasetSpec]): Table = {
    val algos = Seq("DARC-DV", "BUR+", "TDB++")
    val dnfs = new DnfLog
    val rows = sweep(specs, 3 to 7) { (spec, g, k) =>
      algos.flatMap(algo => dnfs.cells(spec.name, algo, k, run(spec.name, g, algo, k)))
    }
    finish("FIG 6/7", Seq("Name", "k") ++ algos.flatMap(a => Seq(s"$a size", s"$a s")), rows, dnfs)
  }

  /** Figs. 8/9: BUR vs BUR+ pruning, k = 3..6. BUR+ must be no larger. */
  def fig89(specs: Seq[DatasetSpec]): Table = {
    val dnfs = new DnfLog
    val rows = sweep(specs, 3 to 6) { (spec, g, k) =>
      val bur = run(spec.name, g, "BUR", k)
      val burp = run(spec.name, g, "BUR+", k)
      for (d1 <- bur.done; d2 <- burp.done)
        ensure(d2.size <= d1.size, spec.name, "BUR+", k, s"cover ${d2.size} larger than BUR's ${d1.size}")
      dnfs.cells(spec.name, "BUR", k, bur) ++ dnfs.cells(spec.name, "BUR+", k, burp)
    }
    finish("FIG 8/9", Seq("Name", "k", "BUR size", "BUR s", "BUR+ size", "BUR+ s"), rows, dnfs)
  }

  /** Fig. 10: TDB, TDB+ and TDB++ times, k = 3..7. Every finished cover
    * must equal TDB++'s, vertex for vertex.
    */
  def fig10(specs: Seq[DatasetSpec]): Table = {
    val algos = Seq("TDB", "TDB+", "TDB++")
    val dnfs = new DnfLog
    val rows = sweep(specs, 3 to 7) { (spec, g, k) =>
      val runs = algos.map(algo => algo -> run(spec.name, g, algo, k))
      val pp = runs.last._2.done.get // TDB++ has no visit budget
      for ((algo, o) <- runs; d <- o.done)
        ensure(d.result.cover.sameElements(pp.result.cover), spec.name, algo, k, "cover differs from TDB++'s")
      val seconds = runs.map { case (algo, o) => dnfs.cells(spec.name, algo, k, o)(1) }
      (pp.size.toString +: seconds) :+ pp.result.stats("bfsPruned").toString
    }
    finish("FIG 10", Seq("Name", "k", "size", "TDB s", "TDB+ s", "TDB++ s", "bfs-pruned"), rows, dnfs)
  }

  /** Encoded edges per input slice of [[dist]]: 256 KiB of longs, so each
    * task that ships a slice stays well under Spark's 1000 KiB task-size
    * warning.
    */
  private val EdgesPerSlice = 1 << 15

  /** DIST: distributed TDB++ at k = 5, the input against its trimmed core
    * ("core |E|"), the distributed trim's output that the driver collects.
    * The generated edges travel to the tasks as encoded slices and are
    * decoded there. The cover is checked on the whole graph, valid and
    * minimal, after the timed span.
    */
  def dist(spark: SparkSession, specs: Seq[DatasetSpec]): Table = {
    import spark.implicits._
    val k = 5
    val rows = specs.map { spec =>
      val encoded = spec.edges
      val m = encoded.length
      val slices = math.max(spark.sparkContext.defaultParallelism, (m + EdgesPerSlice - 1) / EdgesPerSlice)
      val edges = spark.sparkContext.parallelize(ArraySeq.unsafeWrapArray(encoded), slices)
        .map(e => (CorePeriphery.src(e), CorePeriphery.dst(e))).toDF("src", "dst")
      val t = time(DistributedTDB.cover(spark, edges, k))
      val r = t.value
      checkCover(loadGraph(spec), spec.name, "DIST", k, r.result.cover, minimal = true)
      Seq(spec.name, m.toString, r.coreEdgeCount.toString,
        f"${100.0 * r.coreEdgeCount / math.max(1, m)}%.1f%%", r.result.size.toString, secs(t.millis))
    }
    finish("DIST", Seq("Name", "|E|", "core |E|", "core %", "cover", "total s"), rows)
  }
}
