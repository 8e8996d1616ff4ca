package perfbench

import java.nio.file.Paths

import repro.core.{CoverResult, CoverValidator, DirectedGraph}

/** Benchmark entry point: one workload, one seed, one fresh JVM.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <build dir>
  * }}}
  *
  * A run generates its graph from the seed, warms up on a smaller graph from
  * another seed with the same call sequence, then repeats rounds of set-up,
  * cover call and cover check for `--seconds` and reports medians. Every
  * cover must equal the first and pass the check; a failed comparison or
  * check, or an exception, is a failed operation. With `--trace 1` every
  * other round runs under the span recorder, the workload's traced run adds
  * the `repro.dist` layer if it has one, and only the per-layer metrics are
  * printed; `run.py` checks that every metric of the mode is there, or is
  * one the workload does not measure.
  */
object Main {
  val K = 5
  val MinLen = 3
  val MB = 1024.0 * 1024.0

  val EndToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s", "cover_s" -> "s", "verify_s" -> "s", "cover_size" -> "vertices")

  val PerLayer: Seq[(String, String)] = Seq(
    "graph.n" -> "vertices", "graph.m" -> "edges", "graph.edge_hash" -> "hash",
    "graph.alloc_mb" -> "MB",
    "topdown.validations" -> "count", "topdown.dfs_visits" -> "count",
    "bfs.calls" -> "count", "bfs.pruned" -> "count", "bfs.prune_ratio" -> "ratio",
    "topdown.keep_ratio" -> "ratio", "topdown.alloc_mb" -> "MB", "tdbplus.cover_s" -> "s",
    "check.valid_s" -> "s", "check.minimal_s" -> "s", "check.alloc_mb" -> "MB",
    "bur.cycles_found" -> "count", "bur.pruned" -> "count", "bur.alloc_mb" -> "MB",
    "bur.budget_used" -> "visits", "bur.cover_s" -> "s",
    "dist.cover_s" -> "s", "dist.trim_s" -> "s", "dist.trim_edges_out" -> "edges",
    "dist.candidates_s" -> "s", "dist.candidates_out" -> "vertices",
    "dist.core_edges" -> "edges", "dist.core_vertices" -> "vertices",
    "dist.collect_exact_s" -> "s", "dist.jobs" -> "count", "dist.stages" -> "count",
    "dist.tasks" -> "count", "dist.shuffle_write_mb" -> "MB",
    "jvm.gc_count" -> "count", "jvm.gc_s" -> "s", "jvm.retained_mb" -> "MB",
    "trace.overhead_pct" -> "%")

  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean, out: String)

  def parse(args: Array[String]): Args = {
    val kv = args.grouped(2).collect { case Array(k, v) => k -> v }.toMap
    def get(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing $k"))
    Args(get("--workload"), get("--seed").toLong, get("--seconds").toInt,
      get("--trace") == "1", kv.getOrElse("--out", ".bench_build"))
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val report = new Report
    val tracer = new Tracer(args.trace)
    Workloads.byName(args.workload) match {
      case Some(w) =>
        Sequential.run(w, args, report, tracer)
        if (tracer.enabled && w.distLayer) Dist.layer(args, report, tracer)
      case None =>
        System.err.println(s"unknown workload ${args.workload}; known: ${Workloads.names.mkString(", ")}")
        sys.exit(2)
    }
    if (tracer.enabled)
      tracer.write(Paths.get(args.out, "trace", s"${args.workload}-seed${args.seed}.json"))
    val ok = report.print(if (args.trace) PerLayer else EndToEnd)
    sys.exit(if (ok) 0 else 1)
  }

  def seconds(t0: Long, t1: Long): Double = (t1 - t0) / 1e9

  /** Run `body(rep)` at least `min` times and until `until` (nanoTime) passes. */
  def repeat(until: Long, min: Int)(body: Int => Unit): Unit = {
    var rep = 0
    while (rep < min || System.nanoTime() < until) { body(rep); rep += 1 }
  }

  /** One timed call: wall time, bytes the calling thread allocated, and the
    * collections during the call.
    */
  final case class Call[T](value: T, seconds: Double, allocMb: Double,
                           gcCount: Long, gcSeconds: Double)

  def measure[T](body: => T): Call[T] = {
    val gc0 = Jvm.gcCount(); val gcMs0 = Jvm.gcMillis(); val a0 = Jvm.allocatedBytes()
    val t0 = System.nanoTime()
    val v = body
    val t1 = System.nanoTime()
    val a1 = Jvm.allocatedBytes(); val gc1 = Jvm.gcCount(); val gcMs1 = Jvm.gcMillis()
    Call(v, seconds(t0, t1), (a1 - a0) / MB, gc1 - gc0, (gcMs1 - gcMs0) / 1e3)
  }

  /** Repeat `body` back to back for at least `minSeconds` and time the batch
    * as one sample: the time and allocation per call, the last call's value.
    */
  def measurePerCall[T](minSeconds: Double)(body: => T): Call[T] = {
    var calls = 0
    val c = measure {
      val until = System.nanoTime() + (minSeconds * 1e9).toLong
      var v = body
      calls = 1
      while (System.nanoTime() < until) { v = body; calls += 1 }
      v
    }
    c.copy(seconds = c.seconds / calls, allocMb = c.allocMb / calls)
  }

  /** Record the graph's identity: size and a hash of its edge set. */
  def recordGraph(report: Report, edges: Array[Long], g: DirectedGraph): Unit = {
    report.add("graph.n", "vertices", g.n)
    report.add("graph.m", "edges", g.m)
    report.add("graph.edge_hash", "hash", Gen.hash(edges).toDouble)
  }

  def check(g: DirectedGraph, cover: Array[Long]): Boolean =
    CoverValidator.isValid(g, K, MinLen, cover, fast = true) &&
      CoverValidator.isMinimal(g, K, MinLen, cover, fast = true)

  /** Record a timed cover call; true if its cover equals `first`. The heap
    * still live after it, with its result held, is `jvm.retained_mb`.
    */
  def recordCover(report: Report, c: Call[CoverResult], traced: Boolean,
                  first: Array[Long], overhead: Overhead): Boolean = {
    overhead.add(traced, c.seconds)
    if (!traced) report.add("cover_s", "s", c.seconds)
    report.add("cover_size", "vertices", c.value.size)
    report.add("jvm.retained_mb", "MB", Jvm.liveBytes() / MB)
    report.add("jvm.gc_count", "count", c.gcCount)
    report.add("jvm.gc_s", "s", c.gcSeconds)
    java.util.Arrays.equals(first, c.value.cover)
  }

  def topDownCounts(report: Report, res: CoverResult): Unit = {
    val validations = res.stats("validations").toDouble
    val calls = res.stats("bfsCalls").toDouble
    report.add("topdown.validations", "count", validations)
    report.add("topdown.dfs_visits", "count", res.stats("dfsVisits").toDouble)
    report.add("bfs.calls", "count", calls)
    report.add("bfs.pruned", "count", res.stats("bfsPruned").toDouble)
    if (calls > 0) report.add("bfs.prune_ratio", "ratio", res.stats("bfsPruned") / calls)
    if (validations > 0) report.add("topdown.keep_ratio", "ratio", res.size / validations)
  }

  /** One timed cover check, `CoverValidator.isValid` and `isMinimal`; it
    * must pass.
    */
  def verify(report: Report, tr: Tracer, g: DirectedGraph, cover: Array[Long],
             traced: Boolean): Unit =
    report.op("cover check")(measure {
      val valid = tr("check.valid", traced)(CoverValidator.isValid(g, K, MinLen, cover, fast = true))
      val minimal = tr("check.minimal", traced)(CoverValidator.isMinimal(g, K, MinLen, cover, fast = true))
      valid && minimal
    }) { c =>
      if (!traced) report.add("verify_s", "s", c.seconds)
      report.add("check.alloc_mb", "MB", c.allocMb)
      c.value
    }

  /** The traced checks' times, per layer. */
  def checkSpans(report: Report, tr: Tracer): Unit = {
    spanSamples(report, tr, "check.valid", "check.valid_s")
    spanSamples(report, tr, "check.minimal", "check.minimal_s")
  }

  /** Each recorded span's duration as a sample of `metric`, in seconds. */
  def spanSamples(report: Report, tr: Tracer, span: String, metric: String): Unit =
    tr.seconds(span).foreach(report.add(metric, "s", _))

  /** Cover-call times with and without spans, for the tracing overhead. */
  final class Overhead {
    private val plain, traced = collection.mutable.ArrayBuffer.empty[Double]
    def add(isTraced: Boolean, s: Double): Unit = (if (isTraced) traced else plain) += s
    def record(report: Report): Unit =
      if (traced.nonEmpty && plain.nonEmpty) {
        val base = Report.median(plain.toSeq)
        report.add("trace.overhead_pct", "%", 100 * (Report.median(traced.toSeq) - base) / base)
      }
  }
}

object Workloads {
  /** A cover algorithm run in-process on the CSR graph, without Spark. With
    * `distLayer`, the traced run also measures the `repro.dist` layer
    * ([[Dist]]).
    */
  final case class Workload(name: String, shape: Shape, algo: String, distLayer: Boolean = false)

  // Shapes of the Datasets rows FLK-S, WGO-S and WKV-S.
  val FLK = Shape(80000, 6000, 72000, 900000, 0.99, 9000)
  val WGO = Shape(30000, 2500, 25000, 330000, 0.99, 1300)
  val WKV = Shape(1500, 400, 7200, 42000, 0.99, 280)

  val all: Seq[Workload] = Seq(
    Workload("tdbpp-flk-k5", FLK.scaled(8), "TDB++", distLayer = true),
    Workload("burp-wgo-k5", WGO.scaled(4), "BUR+"),
  )
  def names: Seq[String] = all.map(_.name)
  def byName(n: String): Option[Workload] = all.find(_.name == n)
}
