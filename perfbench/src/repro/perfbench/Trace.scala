package repro.perfbench

import scala.collection.mutable

/** One timed call at a layer boundary. Times are `System.nanoTime`
  * readings; `parent` is the id of the enclosing span, or -1.
  */
final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long) {
  def durationNs: Long = endNs - startNs
}

/** In-memory span recorder. Spans nest by call structure (one driver
  * thread opens and closes them); with `enabled = false` every `span`
  * call is a plain call of its body, so untraced runs pay nothing.
  */
final class Trace(val enabled: Boolean) {
  private val finished = mutable.ArrayBuffer[Span]()
  private var open: List[(Int, String, Long)] = Nil
  private var nextId = 0

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = nextId
      nextId += 1
      val parent = open.headOption.map(_._1).getOrElse(-1)
      open = (id, name, System.nanoTime()) :: open
      try body
      finally {
        val (_, _, start) = open.head
        open = open.tail
        finished += Span(id, parent, name, start, System.nanoTime())
      }
    }

  def spans: Seq[Span] = finished.sortBy(_.id).toSeq

  /** Summed duration, in seconds, of every span with this name. */
  def seconds(name: String): Double =
    finished.iterator.filter(_.name == name).map(_.durationNs).sum / 1e9

  /** Number of spans with this name. */
  def calls(name: String): Int = finished.count(_.name == name)
}

object Trace {

  /** Self time of each span, by id: its duration minus the part of its
    * interval that its direct children cover. Children are clipped to
    * the parent's interval and overlapping children count once.
    */
  def selfTimes(spans: Seq[Span]): Map[Int, Long] = {
    val children = spans.groupBy(_.parent)
    spans.map { s =>
      val intervals = children.getOrElse(s.id, Nil)
        .map(c => (math.max(c.startNs, s.startNs), math.min(c.endNs, s.endNs)))
        .filter { case (a, b) => b > a }
        .sortBy(_._1)
      var covered = 0L
      var curStart = 0L
      var curEnd = Long.MinValue
      intervals.foreach { case (a, b) =>
        if (a > curEnd) {
          if (curEnd != Long.MinValue) covered += curEnd - curStart
          curStart = a
          curEnd = b
        } else curEnd = math.max(curEnd, b)
      }
      if (curEnd != Long.MinValue) covered += curEnd - curStart
      s.id -> (s.durationNs - covered)
    }.toMap
  }

  /** The spans as a JSON array, times in seconds from the first start. */
  def toJson(spans: Seq[Span]): String = {
    val self = selfTimes(spans)
    val t0 = if (spans.isEmpty) 0L else spans.map(_.startNs).min
    spans.map { s =>
      s"""{"id":${s.id},"parent":${s.parent},"name":${Json.str(s.name)},""" +
        s""""start_s":${(s.startNs - t0) / 1e9},"wall_s":${s.durationNs / 1e9},""" +
        s""""self_s":${self(s.id) / 1e9}}"""
    }.mkString("[\n", ",\n", "\n]\n")
  }
}

/** Metric names as the benchmark's result format allows them. */
object Names {
  private val Valid = "[A-Za-z0-9][A-Za-z0-9_.-]{0,63}".r

  def valid(name: String): Boolean = Valid.matches(name)

  def check(name: String): String = {
    require(valid(name), s"invalid metric name '$name': want [A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    name
  }
}

/** Ordered metric values with units; a name may be set once. */
final class MetricSet {
  private val values = mutable.LinkedHashMap[String, (Double, String)]()

  def put(name: String, value: Double, unit: String): Unit = {
    Names.check(name)
    require(!values.contains(name), s"metric '$name' set twice")
    require(!value.isNaN && !value.isInfinity, s"metric '$name' is not finite: $value")
    values(name) = (value, unit)
  }

  def toJson: String = values.map { case (n, (v, u)) =>
    s"${Json.str(n)}: {${Json.str("value")}: $v, ${Json.str("unit")}: ${Json.str(u)}}"
  }.mkString("{", ", ", "}")
}

object Json {
  def str(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"' => sb.append("\\\"")
      case '\\' => sb.append("\\\\")
      case c if c < ' ' => sb.append(f"\\u${c.toInt}%04x")
      case c => sb.append(c)
    }
    sb.append('"').toString
  }

  /** A flat JSON object of already-rendered values. */
  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
