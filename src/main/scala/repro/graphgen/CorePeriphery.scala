package repro.graphgen

import java.util.SplittableRandom

import scala.collection.immutable.ArraySeq

/** Seeded core–periphery digraph generator: the synthetic stand-in for the
  * paper's SNAP graphs (DESIGN.md § dataset substitutions).
  *
  * The shape is that of real social/web graphs:
  *  - a DENSE random directed core of `nCore` vertices and `mCore` edges
  *    (the giant SCC, where all the short cycles interlock, so the cover is
  *    forced to a stable fraction of the core whatever the algorithm);
  *  - `m - mCore` periphery edges, a [[CoreAttach]] share of them pointing
  *    into the core (hubs) and an `fb` share oriented from the lower to the
  *    higher rank. Real directed graphs (votes, citations, web links) are
  *    mostly rank-forward and therefore largely acyclic: cycles need the
  *    minority of back edges;
  *  - `mRecip` rank-local reciprocal pairs u ↔ u+1..u+3. In a dense graph a
  *    random reciprocal twin also spawns ≥3-cycles; local pairs have almost
  *    no ranks in between to route through, so they add (almost) pure
  *    2-cycles, the structure behind the paper's Table IV ratios;
  *  - an affine id scramble v ↦ (a·v + b) mod n. Cover algorithms process
  *    vertices in id order, so without it the generator's rank order would
  *    leak into the processing order and bias the top-down cover.
  *
  * Every draw comes from one `SplittableRandom(seed)` (Steele, Lea, Flood,
  * OOPSLA 2014) in a fixed order: core, periphery, reciprocal pairs. The
  * edge set is therefore a function of the parameters and the seed alone,
  * on any machine and any core count. The draw order is the one of the
  * benchmark's own generator (`perfbench.Gen`), and `CorePeripherySpec`
  * pins both to the same edge hashes.
  */
object CorePeriphery {

  /** Share of periphery edges that point into the core. */
  val CoreAttach = 0.15

  /** Largest array the JVM allocates. */
  private val MaxArray = Int.MaxValue - 8

  @inline def src(e: Long): Long = e >>> 32
  @inline def dst(e: Long): Long = e & 0xffffffffL

  /** Distinct edges without self-loops, encoded `src << 32 | dst`, ascending,
    * over the vertices `0 until n`.
    */
  def edges(n: Long, nCore: Long, mCore: Long, m: Long, fb: Double, mRecip: Long,
            seed: Long): Array[Long] = {
    require(0 < nCore && nCore <= n && n <= Int.MaxValue,
      s"need 0 < nCore <= n < 2^31, got n=$n nCore=$nCore")
    require(mCore >= 0 && m >= 0 && mRecip >= 0,
      s"edge counts must be non-negative, got mCore=$mCore m=$m mRecip=$mRecip")
    val mPeri = math.max(0L, m - mCore)
    require(mCore <= MaxArray && mPeri <= MaxArray && mRecip <= MaxArray &&
      mCore + mPeri + 2 * mRecip <= MaxArray,
      s"mCore + mPeri + 2·mRecip = $mCore + $mPeri + 2·$mRecip edges exceed one array " +
        s"($MaxArray); n=$n")
    draw(n.toInt, nCore.toInt, mCore.toInt, mPeri.toInt, fb, mRecip.toInt, seed)
  }

  private def draw(n: Int, nCore: Int, mCore: Int, mPeri: Int, fb: Double, mRecip: Int,
                   seed: Long): Array[Long] = {
    val raw = new Array[Long](mCore + mPeri + 2 * mRecip)
    var a = (0.6180339887 * n).toLong | 1L // odd, ≈ golden-ratio fraction of n
    while (BigInt(a).gcd(BigInt(n)) != 1) a += 2
    val b = math.abs(seed * 31 + 17) % n
    def encode(u: Long, v: Long): Long = (((u * a + b) % n) << 32) | ((v * a + b) % n)

    val rng = new SplittableRandom(seed)
    var i = 0
    while (i < mCore) {
      val u = rng.nextInt(nCore).toLong
      raw(i) = encode(u, rng.nextInt(nCore).toLong)
      i += 1
    }
    i = 0
    while (i < mPeri) {
      val s = rng.nextInt(n).toLong
      val d = (if (rng.nextDouble() < CoreAttach) rng.nextInt(nCore) else rng.nextInt(n)).toLong
      raw(mCore + i) = if (rng.nextDouble() < fb) encode(math.min(s, d), math.max(s, d)) else encode(s, d)
      i += 1
    }
    i = 0
    val base = mCore + mPeri
    while (i < mRecip) {
      val u = rng.nextInt(n).toLong
      val v = math.min(n - 1L, u + 1 + rng.nextInt(3))
      raw(base + 2 * i) = encode(u, v)
      raw(base + 2 * i + 1) = encode(v, u)
      i += 1
    }

    java.util.Arrays.sort(raw)
    var w = 0
    i = 0
    while (i < raw.length) {
      val e = raw(i)
      if (src(e) != dst(e) && (w == 0 || raw(w - 1) != e)) { raw(w) = e; w += 1 }
      i += 1
    }
    java.util.Arrays.copyOf(raw, w)
  }

  /** The edges as the (src, dst) pairs that Spark's `toDF` takes. */
  def pairs(edges: Array[Long]): Seq[(Long, Long)] =
    ArraySeq.unsafeWrapArray(edges.map(e => (src(e), dst(e))))
}
