package repro.graphgen

/** Named synthetic stand-ins for the paper's evaluation datasets (Table II).
  *
  * Every stand-in uses [[CorePeriphery]]: a dense random directed core (the
  * giant-SCC analogue whose interlocking short cycles force the cover size)
  * plus a ~99% rank-forward dense periphery (the acyclic fringe), `mRecip`
  * rank-local reciprocal pairs (drive the Table IV with-2-cycle ratios
  * without spawning extra ≥3-cycles), and an affine id scramble. `nCore`/`mCore`
  * set the core scale and density — the lever that controls how hard the
  * bounded-DFS baselines work — while `m` sets the total edge budget.
  *
  * Scale is reduced versus the paper's SNAP graphs (C++ testbed, hours of
  * runtime); the preserved targets are the RELATIVE algorithm ordering in
  * runtime and cover size, per DESIGN.md § dataset substitutions. Realised
  * average degrees approximate the real datasets' (e.g. WKV 27 vs 29.1).
  *
  * `heavyOnly = true` marks stand-ins for FLK/LJ/WKP/TW, where the paper
  * reports results only for TDB++ (baselines time out — rendered as "-").
  *
  * Sizes scale with env BENCH_SCALE (default 1.0).
  */
final case class DatasetSpec(
    name: String,
    mimics: String,
    n: Long,
    nCore: Long,
    mCore: Long,
    m: Long,
    forwardBias: Double,
    mRecip: Long,
    heavyOnly: Boolean,
) {
  def model: String = "core+peri"

  /** The seed: a function of the name alone. */
  def seed: Long = name.hashCode.toLong & 0xffff

  /** Encoded `src << 32 | dst` edges, ascending (see [[CorePeriphery]]). */
  def edges: Array[Long] = CorePeriphery.edges(n, nCore, mCore, m, forwardBias, mRecip, seed)
}

object Datasets {

  private def scaleFactor: Double =
    sys.env.get("BENCH_SCALE").map(_.toDouble).getOrElse(1.0)

  private def sc(x: Long): Long = math.max(64L, (x * scaleFactor).toLong)

  /** The Table II / III / IV roster. Ordered like the paper: small, cyclic
    * graphs first, then the heavy TDB++-only graphs.
    */
  def all: Seq[DatasetSpec] = Seq(
    DatasetSpec("WKV-S", "Wiki-Vote",    sc(1500),   sc(400),   sc(7200),   sc(42000),   0.99, sc(280),  heavyOnly = false),
    DatasetSpec("ASC-S", "as-caida",     sc(5000),   sc(300),   sc(2400),   sc(28000),   0.99, sc(2800), heavyOnly = false),
    DatasetSpec("GNU-S", "Gnutella31",   sc(12000),  sc(200),   sc(1000),   sc(38000),   0.99, sc(16),   heavyOnly = false),
    DatasetSpec("EU-S",  "Email-EuAll",  sc(20000),  sc(300),   sc(1800),   sc(55000),   0.99, sc(150),  heavyOnly = false),
    DatasetSpec("SAD-S", "Slashdot0902", sc(6000),   sc(800),   sc(12000),  sc(126000),  0.99, sc(3200), heavyOnly = false),
    DatasetSpec("WGO-S", "webGoogle",    sc(30000),  sc(2500),  sc(25000),  sc(330000),  0.99, sc(1300), heavyOnly = false),
    DatasetSpec("FLK-S", "Flickr",       sc(80000),  sc(6000),  sc(72000),  sc(900000),  0.99, sc(9000), heavyOnly = true),
    DatasetSpec("LJ-S",  "LiveJournal",  sc(200000), sc(12000), sc(144000), sc(2200000), 0.99, sc(15000), heavyOnly = true),
  )

  def byName(name: String): DatasetSpec =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown dataset $name; known: ${all.map(_.name).mkString(",")}"))

  /** Speed-up experiment roster (paper Fig. 10 uses WKV and WGO). */
  def speedup: Seq[DatasetSpec] = Seq(byName("WKV-S"), byName("WGO-S"))
}
