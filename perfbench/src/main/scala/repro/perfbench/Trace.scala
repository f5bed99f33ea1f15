package repro.perfbench

import java.io.{BufferedWriter, File, FileWriter}
import scala.collection.mutable

/** In-memory span recorder for the traced run.
  *
  * A span is a name, a start and end (`System.nanoTime`), the span that
  * was open when it began (its parent, -1 for a root) and the id of the
  * query or build op it belongs to. Spans are recorded by the benchmark
  * around its calls into the program's layers; the program itself is not
  * instrumented. Nothing is written until [[write]] at the end of the run.
  */
final class Trace {
  private var size    = 0
  private var nameOf  = new Array[Int](1 << 16)
  private var starts  = new Array[Long](1 << 16)
  private var ends    = new Array[Long](1 << 16)
  private var parents = new Array[Int](1 << 16)
  private var ops     = new Array[Int](1 << 16)
  private var open    = -1
  private var nextOps = 0
  private val names   = mutable.ArrayBuffer.empty[String]
  private val ids     = mutable.HashMap.empty[String, Int]

  def numSpans: Int = size

  /** A fresh id for the next query or build op. */
  def nextOp(): Int = { nextOps += 1; nextOps - 1 }

  /** Interned id of a span name; resolve names once, outside hot loops. */
  def nameId(name: String): Int = ids.getOrElseUpdate(name, { names += name; names.length - 1 })

  private def grow(): Unit = {
    val cap = nameOf.length * 2
    nameOf = java.util.Arrays.copyOf(nameOf, cap)
    starts = java.util.Arrays.copyOf(starts, cap)
    ends = java.util.Arrays.copyOf(ends, cap)
    parents = java.util.Arrays.copyOf(parents, cap)
    ops = java.util.Arrays.copyOf(ops, cap)
  }

  def begin(name: Int, op: Int): Int = {
    if (size == nameOf.length) grow()
    val i = size
    nameOf(i) = name
    parents(i) = open
    ops(i) = op
    ends(i) = -1L
    size += 1
    open = i
    starts(i) = System.nanoTime()
    i
  }

  def end(span: Int): Unit = {
    ends(span) = System.nanoTime()
    open = parents(span)
  }

  def span[A](name: Int, op: Int)(f: => A): A = {
    val s = begin(name, op)
    try f finally end(s)
  }

  private def duration(i: Int): Long = ends(i) - starts(i)

  /** Self time of every span: its duration minus the part of its
    * interval that its children cover.
    */
  private def selfTimes(): Array[Long] = {
    val covered = new Array[Long](size)
    var i = 0
    while (i < size) {
      val p = parents(i)
      if (p >= 0) {
        val from  = math.max(starts(i), starts(p))
        val until = math.min(ends(i), ends(p))
        if (until > from) covered(p) += until - from
      }
      i += 1
    }
    Array.tabulate(size)(j => duration(j) - covered(j))
  }

  /** Summed self time in nanoseconds per span name. */
  def selfNsByName(): Map[String, Long] = {
    val self = selfTimes()
    val out  = new Array[Long](names.length)
    var i = 0
    while (i < size) { out(nameOf(i)) += self(i); i += 1 }
    names.indices.map(k => names(k) -> out(k)).toMap
  }

  /** Writes all spans as tab-separated rows: span, name, op, parent,
    * start_ns, end_ns, self_ns (times relative to the first span).
    */
  def write(file: File): Unit = {
    file.getParentFile.mkdirs()
    val self = selfTimes()
    val t0   = if (size == 0) 0L else starts(0)
    val w    = new BufferedWriter(new FileWriter(file))
    try {
      w.write("span\tname\top\tparent\tstart_ns\tend_ns\tself_ns\n")
      var i = 0
      while (i < size) {
        w.write(s"$i\t${names(nameOf(i))}\t${ops(i)}\t${parents(i)}\t" +
          s"${starts(i) - t0}\t${ends(i) - t0}\t${self(i)}\n")
        i += 1
      }
    } finally w.close()
  }
}
