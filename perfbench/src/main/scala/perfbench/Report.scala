package perfbench

import scala.collection.mutable
import scala.util.control.NonFatal

/** Metric samples of one run, the operation tally, and the output format:
  * one line per metric (name, median, unit, sample count, range), then the
  * result as a single JSON object on the last line.
  */
final class Report {
  private val samples = mutable.LinkedHashMap.empty[String, (String, mutable.ArrayBuffer[Double])]
  private var attempted = 0
  private var failed = 0
  private val notes = mutable.ArrayBuffer.empty[String]

  def add(name: String, unit: String, value: Double): Unit =
    samples.getOrElseUpdate(name, (unit, mutable.ArrayBuffer.empty[Double]))._2 += value

  /** Run one operation. It fails if it throws or its check returns false. */
  def op[T](what: String)(body: => T)(check: T => Boolean): Option[T] = {
    attempted += 1
    try {
      val v = body
      if (check(v)) Some(v) else { fail(s"$what: check failed"); None }
    } catch {
      case e: StackOverflowError => fail(s"$what: $e"); None
      case NonFatal(e)           => fail(s"$what: $e"); None
    }
  }

  private def fail(why: String): Unit = { failed += 1; notes += why }

  /** Print those of the metrics in `names` that have samples (in that order)
    * and the result line; the result is correct if no operation failed.
    */
  def print(names: Seq[(String, String)]): Boolean = {
    notes.foreach(n => println(s"# FAILED $n"))
    val present = names.filter { case (n, _) => samples.contains(n) }
    present.foreach { case (n, _) =>
      val (unit, xs) = samples(n)
      println(f"metric $n%-28s ${Report.median(xs.toSeq)}%14.6f $unit%-8s n=${xs.size}%-3d " +
        f"min=${xs.min}%.6f max=${xs.max}%.6f")
    }
    val correct = failed == 0
    val metrics = present.map { case (n, _) =>
      val (unit, xs) = samples(n)
      s""""$n": {"value": ${Report.median(xs.toSeq)}, "unit": "$unit"}"""
    }
    println(s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, """ +
      s""""metrics": {${metrics.mkString(", ")}}}""")
    correct
  }
}

object Report {
  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }
}
