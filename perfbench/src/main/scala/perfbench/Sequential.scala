package perfbench

import repro.core.{BottomUp, CoverResult, DirectedGraph, SearchBudget, TopDown}

/** The workloads' timed part: TDB++ or BUR+ on the CSR graph, no Spark. */
object Sequential {
  import Main._

  val MinRounds = 3
  /** Each set-up sample times back-to-back builds for at least this long;
    * one build takes 30-60 ms, too short to time alone against host noise.
    */
  val SetupSampleS = 0.3
  /** Enough for the check to run compiled before its first timed call. */
  val WarmReps = 5

  /** Fixed visit budget for BUR and BUR+: far above what the workload needs
    * (13 M visits for seed 1), so an exponential regression fails the run
    * within about half a minute instead of hanging.
    */
  val BurBudget = 500_000_000L

  private def cover(algo: String, g: DirectedGraph): (CoverResult, Long) = algo match {
    case "TDB++" => (TopDown.cover(g, K, MinLen, TopDown.TDBPlusPlus), 0L)
    case "TDB+"  => (TopDown.cover(g, K, MinLen, TopDown.TDBPlus), 0L)
    case "BUR+" | "BUR" =>
      val budget = new SearchBudget(BurBudget)
      (BottomUp.cover(g, K, MinLen, minimalPrune = algo == "BUR+", budget = budget), budget.spent)
  }

  /** The comparison call a traced repetition adds, and its metric: the same
    * graph without the BFS filter (TDB+) or without Algorithm 7's pruning
    * pass (BUR).
    */
  private def variant(algo: String): (String, String) =
    if (algo == "TDB++") ("TDB+", "tdbplus.cover_s") else ("BUR", "bur.cover_s")

  def run(w: Workloads.Workload, args: Args, report: Report, tr: Tracer): Unit = {
    val edges = Gen.edges(w.shape, args.seed)
    val pairs = Gen.pairs(edges)
    val (variantAlgo, variantMetric) = variant(w.algo)
    val variantSpan = variantMetric.stripSuffix("_s")

    // Warm-up: the same call sequence on a smaller graph from another seed.
    val warm = Gen.pairs(Gen.edges(w.shape.scaled(4), Gen.mix64(args.seed ^ 0x5eed)))
    for (_ <- 1 to WarmReps) {
      val g = DirectedGraph.fromEdges(warm)
      check(g, cover(w.algo, g)._1.cover)
      if (tr.enabled) cover(variantAlgo, g)
    }

    // Rounds of set-up, cover and check until `--seconds` have passed: each
    // metric samples the whole run, not one phase of it, so a slow spell of
    // the host weighs on all of them alike.
    val overhead = new Overhead
    var first: Array[Long] = null
    repeat(System.nanoTime() + args.seconds * 1_000_000_000L, MinRounds) { rep =>
      val traced = tr.enabled && rep % 2 == 1
      val built = report.op("DirectedGraph.fromEdges")(
        measurePerCall(SetupSampleS)(DirectedGraph.fromEdges(pairs))) { c =>
        report.add("setup_s", "s", c.seconds)
        report.add("graph.alloc_mb", "MB", c.allocMb)
        true
      }
      for (b <- built) {
        val g = b.value
        if (rep == 0) recordGraph(report, edges, g)
        val covered = report.op(s"${w.algo} cover")(measure(tr("cover", traced)(cover(w.algo, g)))) { c =>
          val (res, spent) = c.value
          if (first == null) first = res.cover
          if (w.algo == "TDB++") {
            topDownCounts(report, res)
            report.add("topdown.alloc_mb", "MB", c.allocMb)
          } else {
            report.add("bur.cycles_found", "count", res.stats("cyclesFound").toDouble)
            report.add("bur.pruned", "count", res.stats("pruned").toDouble)
            report.add("bur.alloc_mb", "MB", c.allocMb)
            report.add("bur.budget_used", "visits", spent.toDouble)
          }
          recordCover(report, c.copy(value = res), traced, first, overhead)
        }
        for (c <- covered) {
          if (traced) report.op(variantAlgo)(tr(variantSpan)(cover(variantAlgo, g)))(_ => true)
          verify(report, tr, g, c.value._1.cover, traced)
        }
      }
    }

    checkSpans(report, tr)
    spanSamples(report, tr, variantSpan, variantMetric)
    overhead.record(report)
  }
}
