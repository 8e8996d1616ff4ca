package perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}

import scala.collection.mutable

/** In-memory span recorder: one span (name, start, end, parent) around each
  * call the benchmark makes into a layer of the program. Disabled, it only
  * runs the body. Spans are written out once, at the end of the run.
  */
final class Tracer(val enabled: Boolean) {
  import Tracer.Span

  private val spans = mutable.ArrayBuffer.empty[Span]
  private var open = List(0) // 0 = no parent
  private var nextId = 1
  private val origin = System.nanoTime()

  /** Run `body` inside a span named `name`, unless tracing or `on` is off. */
  def apply[T](name: String, on: Boolean = true)(body: => T): T =
    if (!enabled || !on) body
    else {
      val id = nextId; nextId += 1
      val parent = open.head
      open = id :: open
      val t0 = System.nanoTime()
      try body
      finally {
        spans += Span(id, parent, name, t0 - origin, System.nanoTime() - origin)
        open = open.tail
      }
    }

  /** Durations in seconds of every span with this name. */
  def seconds(name: String): Seq[Double] =
    spans.iterator.filter(_.name == name).map(s => (s.end - s.start) / 1e9).toSeq

  def write(path: Path): Unit = {
    Files.createDirectories(path.getParent)
    val rows = spans.map { s =>
      s"""{"id":${s.id},"parent":${s.parent},"name":"${s.name}","start_ns":${s.start},"end_ns":${s.end}}"""
    }
    Files.write(path, rows.mkString("[\n", ",\n", "\n]\n").getBytes(StandardCharsets.UTF_8))
  }
}

object Tracer {
  private final case class Span(id: Int, parent: Int, name: String, start: Long, end: Long)
}
