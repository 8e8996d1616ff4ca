package repro.bench

import org.apache.spark.sql.SparkSession
import repro.bench.Harness.{DnfLog, Dnf, Table}
import repro.core.{CoverValidator, DirectedGraph, TopDown}
import repro.dist.DistributedTDB
import repro.graphgen.{CorePeriphery, DatasetSpec}

/** The paper's experiments, each defined once: Tables II–IV, Figs. 6–10 in
  * table form, and the distributed pipeline's scalability table (DIST).
  *
  * Each function runs on the roster it is given, prints its `[TAG]` table
  * and DNF lines through [[Harness]], and returns the table. Its checks run
  * inside it, so a fast-but-wrong run cannot set a table's numbers: a
  * failed check throws [[CheckFailed]] naming the dataset, the algorithm
  * and k, and a table without rows throws too.
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

  private def secs(millis: Long): String = f"${millis / 1000.0}%.2f"

  private def finish(tag: String, header: Seq[String], rows: Seq[Seq[String]],
                     dnfs: DnfLog = new DnfLog): Table = {
    if (rows.isEmpty) throw new CheckFailed(s"$tag: no rows")
    val t = Table(tag, header, rows, dnfs.result)
    Harness.emit(t)
    t
  }

  /** Table II: dataset statistics after self-loop and duplicate removal. */
  def tableII(specs: Seq[DatasetSpec]): Table = {
    val rows = specs.map { spec =>
      val g = Harness.loadGraph(spec)
      val dAvg = if (g.n == 0) 0.0 else g.m.toDouble / g.n
      Seq(spec.name, spec.mimics, spec.model, g.n.toString, g.m.toString, f"$dAvg%.1f")
    }
    finish("TABLE II", Seq("Name", "Mimics", "Model", "|V|", "|E|", "d_avg"), rows)
  }

  /** Table III: cover size and time of DARC-DV, BUR+ and TDB++ at k = 5.
    * Heavy rows run TDB++ only, like the paper's dashes. TDB++ and BUR+
    * covers must be valid and minimal (Thm. 7, Alg. 7); DARC-DV's only
    * valid, as it maps an edge-minimal line-graph transversal back to
    * vertices, which need not be vertex-minimal.
    */
  def tableIII(specs: Seq[DatasetSpec]): Table = {
    val k = 5
    val dnfs = new DnfLog
    val rows = specs.map { spec =>
      val g = Harness.loadGraph(spec)
      val cells = Seq("DARC-DV", "BUR+", "TDB++").flatMap { algo =>
        val o =
          if (spec.heavyOnly && algo != "TDB++") Dnf("heavy: TDB++-only")
          else Harness.runAlgo(g, algo, k)
        o.done.foreach(d => checkCover(g, spec.name, algo, k, d.result.cover, minimal = algo != "DARC-DV"))
        dnfs.cells(spec.name, algo, k, o)
      }
      Seq(spec.name, g.n.toString, g.m.toString) ++ cells
    }
    finish("TABLE III", Seq("Name", "|V|", "|E|", "DARC-DV size", "DARC-DV s", "BUR+ size",
      "BUR+ s", "TDB++ size", "TDB++ s"), rows, dnfs)
  }

  /** Table IV: TDB++ cover size at k = 5 without and with 2-cycles. The
    * with-2-cycle cover must be valid at minLen 2 and no smaller.
    */
  def tableIV(specs: Seq[DatasetSpec]): Table = {
    val k = 5
    val rows = specs.map { spec =>
      val g = Harness.loadGraph(spec)
      val no2 = TopDown.cover(g, k, minLen = 3).size
      val with2 = TopDown.cover(g, k, minLen = 2).cover
      checkCover(g, spec.name, "TDB++", k, with2, minimal = false, minLen = 2)
      ensure(with2.length >= no2, spec.name, "TDB++", k,
        s"${with2.length} vertices with 2-cycles, fewer than $no2 without")
      val ratio = if (no2 == 0) Double.NaN else with2.length.toDouble / no2
      Seq(spec.name, no2.toString, with2.length.toString, f"$ratio%.2f")
    }
    finish("TABLE IV", Seq("Name", "No 2-cycle", "With 2-cycle", "Ratio"), rows)
  }

  /** Runs `row` for every k of `ks` on every dataset, loading each graph once. */
  private def sweep(specs: Seq[DatasetSpec], ks: Range)(
      row: (DatasetSpec, DirectedGraph, Int) => Seq[String]): Seq[Seq[String]] =
    for (spec <- specs; g = Harness.loadGraph(spec); k <- ks)
      yield Seq(spec.name, k.toString) ++ row(spec, g, k)

  /** Figs. 6/7: cover size and time of DARC-DV, BUR+ and TDB++, k = 3..7. */
  def fig67(specs: Seq[DatasetSpec]): Table = {
    val algos = Seq("DARC-DV", "BUR+", "TDB++")
    val dnfs = new DnfLog
    val rows = sweep(specs, 3 to 7) { (spec, g, k) =>
      algos.flatMap(algo => dnfs.cells(spec.name, algo, k, Harness.runAlgo(g, algo, k)))
    }
    finish("FIG 6/7", Seq("Name", "k") ++ algos.flatMap(a => Seq(s"$a size", s"$a s")), rows, dnfs)
  }

  /** Figs. 8/9: BUR vs BUR+ pruning, k = 3..6. BUR+ must be no larger. */
  def fig89(specs: Seq[DatasetSpec]): Table = {
    val dnfs = new DnfLog
    val rows = sweep(specs, 3 to 6) { (spec, g, k) =>
      val bur = Harness.runAlgo(g, "BUR", k)
      val burp = Harness.runAlgo(g, "BUR+", k)
      for (d1 <- bur.done; d2 <- burp.done)
        ensure(d2.size <= d1.size, spec.name, "BUR+", k, s"cover ${d2.size} larger than BUR's ${d1.size}")
      dnfs.cells(spec.name, "BUR", k, bur) ++ dnfs.cells(spec.name, "BUR+", k, burp)
    }
    finish("FIG 8/9", Seq("Name", "k", "BUR size", "BUR s", "BUR+ size", "BUR+ s"), rows, dnfs)
  }

  /** Fig. 10: TDB, TDB+ and TDB++ times, k = 3..7. TDB+ and TDB++ covers
    * must be equal, and TDB's the same size whenever it finishes within
    * [[Harness.searchBudget]].
    */
  def fig10(specs: Seq[DatasetSpec]): Table = {
    val dnfs = new DnfLog
    val rows = sweep(specs, 3 to 7) { (spec, g, k) =>
      val tdb = Harness.runAlgo(g, "TDB", k)
      val plus = Harness.time(TopDown.cover(g, k, 3, TopDown.TDBPlus))
      val pp = Harness.time(TopDown.cover(g, k, 3, TopDown.TDBPlusPlus))
      ensure(plus.value.cover.sameElements(pp.value.cover), spec.name, "TDB+", k, "cover differs from TDB++'s")
      for (d <- tdb.done)
        ensure(d.size == plus.value.size, spec.name, "TDB", k, s"size ${d.size}, TDB+ ${plus.value.size}")
      Seq(plus.value.size.toString, dnfs.cells(spec.name, "TDB", k, tdb)(1), secs(plus.millis),
        secs(pp.millis), pp.value.stats("bfsPruned").toString)
    }
    finish("FIG 10", Seq("Name", "k", "size", "TDB s", "TDB+ s", "TDB++ s", "bfs-pruned"), rows, dnfs)
  }

  /** DIST: distributed TDB++ at k = 5, the input against its cyclic core
    * after the distributed trim and closed-walk filter.
    */
  def dist(spark: SparkSession, specs: Seq[DatasetSpec]): Table = {
    import spark.implicits._
    val k = 5
    val rows = specs.map { spec =>
      val edges = CorePeriphery.pairs(spec.edges).toDF("src", "dst").cache()
      val m = edges.count()
      val t = Harness.time(DistributedTDB.cover(spark, edges, k))
      edges.unpersist()
      val r = t.value
      Seq(spec.name, m.toString, r.coreEdgeCount.toString,
        f"${100.0 * r.coreEdgeCount / math.max(1, m)}%.1f%%", r.result.size.toString, secs(t.millis))
    }
    finish("DIST", Seq("Name", "|E|", "core |E|", "core %", "cover", "total s"), rows)
  }
}
