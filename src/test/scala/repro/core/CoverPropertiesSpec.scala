package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import repro.darc.DarcDV
import repro.testkit.TestGraphs

/** Property-based cross-validation of every cover algorithm over random
  * digraphs: all covers valid; BUR+ and TDB* minimal; TDB variants
  * identical; and the (k, minLen) bounds they all share. ScalaCheck is driven directly (the scalatest bridge artifact
  * is not in the offline cache).
  */
class CoverPropertiesSpec extends AnyFunSuite {

  private val graphGen: Gen[DirectedGraph] = for {
    n <- Gen.choose(4, 18)
    m <- Gen.choose(n, 4 * n)
    seed <- Gen.choose(0L, 1000000L)
  } yield TestGraphs.random(n, m, seed)

  private val kGen: Gen[Int] = Gen.choose(3, 6)

  private def checkProp(p: Prop, minSuccessful: Int = 60): Unit = {
    val res = SCTest.check(
      SCTest.Parameters.default
        .withMinSuccessfulTests(minSuccessful)
        .withInitialSeed(org.scalacheck.rng.Seed(42L)),
      p)
    assert(res.passed, res.status.toString)
  }

  test("property: every algorithm returns a valid cover") {
    checkProp(Prop.forAll(graphGen, kGen) { (g, k) =>
      val covers = Seq(
        BottomUp.cover(g, k).cover,
        BottomUp.cover(g, k, minimalPrune = true).cover,
        TopDown.cover(g, k, 3, TopDown.TDB).cover,
        TopDown.cover(g, k, 3, TopDown.TDBPlus).cover,
        TopDown.cover(g, k, 3, TopDown.TDBPlusPlus).cover,
        DarcDV.cover(g, k).cover,
      )
      covers.forall(c => CoverValidator.isValid(g, k, 3, c))
    })
  }

  test("property: BUR+ and TDB are minimal") {
    checkProp(Prop.forAll(graphGen, kGen) { (g, k) =>
      CoverValidator.isMinimal(g, k, 3,
        BottomUp.cover(g, k, minimalPrune = true).cover) &&
      CoverValidator.isMinimal(g, k, 3, TopDown.cover(g, k).cover)
    })
  }

  test("property: TDB, TDB+ and TDB++ compute identical covers") {
    checkProp(Prop.forAll(graphGen, kGen) { (g, k) =>
      val a = TopDown.cover(g, k, 3, TopDown.TDB).cover.toSeq
      val b = TopDown.cover(g, k, 3, TopDown.TDBPlus).cover.toSeq
      val c = TopDown.cover(g, k, 3, TopDown.TDBPlusPlus).cover.toSeq
      a == b && b == c
    })
  }

  test("property: a k-cover also covers all (k-1)-cycles") {
    checkProp(Prop.forAll(graphGen, Gen.choose(4, 6)) { (g, k) =>
      CoverValidator.isValid(g, k - 1, 3, TopDown.cover(g, k).cover)
    })
  }

  test("property: fast (block-based) validator agrees with plain validation") {
    checkProp(Prop.forAll(graphGen, kGen) { (g, k) =>
      val cover = TopDown.cover(g, k).cover
      (CoverValidator.isValid(g, k, 3, cover, fast = true) ==
        CoverValidator.isValid(g, k, 3, cover, fast = false)) &&
      (CoverValidator.isMinimal(g, k, 3, cover, fast = true) ==
        CoverValidator.isMinimal(g, k, 3, cover, fast = false))
    })
  }

  test("property: residual graph has no constrained cycle (direct enumeration)") {
    checkProp(Prop.forAll(graphGen, kGen) { (g, k) =>
      val cover = TopDown.cover(g, k).cover.map(id =>
        java.util.Arrays.binarySearch(g.ids, id)).toSet
      BruteForce.enumerateCycles(g, k).forall(_.exists(cover.contains))
    })
  }

  test("property: minLen=2 covers also break every 2-cycle") {
    checkProp(Prop.forAll(graphGen, kGen) { (g, k) =>
      val cover = TopDown.cover(g, k, minLen = 2).cover.map(id =>
        java.util.Arrays.binarySearch(g.ids, id)).toSet
      BruteForce.enumerateCycles(g, k, minLen = 2).forall(_.exists(cover.contains))
    })
  }

  test("property: BUR hit-count covers never leave a cycle behind (validity at minLen=2 and 3)") {
    checkProp(Prop.forAll(graphGen, kGen) { (g, k) =>
      CoverValidator.isValid(g, k, 3, BottomUp.cover(g, k).cover) &&
      CoverValidator.isValid(g, k, 2, BottomUp.cover(g, k, minLen = 2).cover)
    }, minSuccessful = 40)
  }

  test("every cover algorithm and check rejects minLen = 1 and k < minLen with the shared messages") {
    val g = TestGraphs.figure1
    val entryPoints: Seq[(String, (Int, Int) => Any)] = Seq(
      "TopDown.cover"            -> ((k, minLen) => TopDown.cover(g, k, minLen)),
      "BottomUp.cover"           -> ((k, minLen) => BottomUp.cover(g, k, minLen)),
      "DarcDV.cover"             -> ((k, minLen) => DarcDV.cover(g, k, minLen)),
      "CoverValidator.isValid"   -> ((k, minLen) => CoverValidator.isValid(g, k, minLen, Array.empty)),
      "CoverValidator.isMinimal" -> ((k, minLen) => CoverValidator.isMinimal(g, k, minLen, Array.empty)),
    )
    val bounds = Seq(
      (5, 1) -> "minimum cycle length minLen=1 must be at least 2",
      (2, 3) -> "hop constraint k=2 below minimum cycle length 3",
    )
    for ((name, run) <- entryPoints; ((k, minLen), message) <- bounds) withClue(s"$name(k=$k, minLen=$minLen): ") {
      val e = intercept[IllegalArgumentException](run(k, minLen))
      assert(e.getMessage.contains(message))
    }
  }
}
