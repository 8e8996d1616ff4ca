package perfbench

import java.util.SplittableRandom

import scala.collection.immutable.ArraySeq

/** Parameters of a core–periphery digraph, in the form of a
  * `repro.graphgen.Datasets` row: a dense random core of `nCore` vertices
  * and `mCore` edges, `m - mCore` periphery edges of which a `coreAttach`
  * share point into the core and an `fb` share are oriented rank-forward,
  * `mRecip` rank-local reciprocal pairs, and an affine id scramble.
  */
final case class Shape(n: Int, nCore: Int, mCore: Int, m: Int, fb: Double, mRecip: Int,
                       coreAttach: Double = 0.15) {
  def scaled(div: Int): Shape =
    Shape(n / div, nCore / div, mCore / div, m / div, fb, mRecip / div, coreAttach)
}

/** Seeded plain-Scala generator: the benchmark owns its inputs. Every draw
  * comes from one `SplittableRandom(seed)`, so the edge set depends on the
  * seed alone.
  */
object Gen {
  /** SplitMix64 finaliser. */
  def mix64(x0: Long): Long = {
    var x = x0
    x = (x ^ (x >>> 30)) * 0xbf58476d1ce4e5b9L
    x = (x ^ (x >>> 27)) * 0x94d049bb133111ebL
    x ^ (x >>> 31)
  }

  private def encode(s: Long, d: Long): Long = (s << 32) | d

  /** Distinct edges without self-loops, encoded `src << 32 | dst`, ascending. */
  def edges(shape: Shape, seed: Long): Array[Long] = {
    import shape._
    val mPeri = math.max(0, m - mCore)
    val raw = new Array[Long](mCore + mPeri + 2 * mRecip)
    var a = (0.6180339887 * n).toLong | 1L
    while (BigInt(a).gcd(BigInt(n)) != 1) a += 2
    val b = math.abs(seed * 31 + 17) % n
    def scramble(v: Long): Long = (v * a + b) % n

    val rng = new SplittableRandom(seed)
    var i = 0
    while (i < mCore) {
      raw(i) = encode(scramble(rng.nextInt(nCore)), scramble(rng.nextInt(nCore)))
      i += 1
    }
    i = 0
    while (i < mPeri) {
      val s = rng.nextInt(n).toLong
      val d = (if (rng.nextDouble() < coreAttach) rng.nextInt(nCore) else rng.nextInt(n)).toLong
      val fwd = rng.nextDouble() < fb
      val (u, v) = if (fwd) (math.min(s, d), math.max(s, d)) else (s, d)
      raw(mCore + i) = encode(scramble(u), scramble(v))
      i += 1
    }
    i = 0
    val base = mCore + mPeri
    while (i < mRecip) {
      val u = rng.nextInt(n).toLong
      val v = math.min(n - 1L, u + 1 + rng.nextInt(3))
      raw(base + 2 * i) = encode(scramble(u), scramble(v))
      raw(base + 2 * i + 1) = encode(scramble(v), scramble(u))
      i += 1
    }

    java.util.Arrays.sort(raw)
    var w = 0
    i = 0
    while (i < raw.length) {
      val e = raw(i)
      if ((e >>> 32) != (e & 0xffffffffL) && (w == 0 || raw(w - 1) != e)) { raw(w) = e; w += 1 }
      i += 1
    }
    java.util.Arrays.copyOf(raw, w)
  }

  /** 52-bit hash of a sorted edge array (exact as a JSON number). */
  def hash(edges: Array[Long]): Long = {
    var h = 0x1234567L
    edges.foreach(e => h = mix64(h ^ e))
    h & ((1L << 52) - 1)
  }

  /** The edge list as the (src, dst) pairs the program's loaders take. */
  def pairs(edges: Array[Long]): ArraySeq[(Long, Long)] =
    ArraySeq.unsafeWrapArray(edges.map(e => (e >>> 32, e & 0xffffffffL)))
}
