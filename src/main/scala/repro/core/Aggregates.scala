package repro.core

/** Aggregate functions a GeoBlock query can request. */
sealed trait AggFunc
object AggFunc {
  case object Count extends AggFunc
  case object Min   extends AggFunc
  case object Max   extends AggFunc
  case object Sum   extends AggFunc
  case object Avg   extends AggFunc
}

/** One requested aggregate: a function over a column index of the block's
  * value columns (`col` is ignored for COUNT).
  */
final case class AggSpec(func: AggFunc, col: Int = 0)

object AggSpec {
  /** Distinct value-column indices a set of specs needs (COUNT needs none,
    * but the tuple count is always maintained as AVG depends on it).
    */
  def neededCols(specs: Seq[AggSpec]): Array[Int] =
    specs.collect { case AggSpec(f, c) if f != AggFunc.Count => c }.distinct.sorted.toArray
}

/** Mutable aggregate accumulator: a tuple count plus MIN/MAX/SUM for each
  * value column — exactly the per-CellBlock payload of the paper. Column
  * subsets (`cols`) let queries pay only for the aggregates they request.
  */
final class AggState(val nCols: Int) {
  var count: Long = 0L
  val mins: Array[Double] = Array.fill(nCols)(Double.PositiveInfinity)
  val maxs: Array[Double] = Array.fill(nCols)(Double.NegativeInfinity)
  val sums: Array[Double] = new Array[Double](nCols)

  /** Folds one raw tuple in, touching only the requested columns. */
  def addTuple(values: Array[Array[Double]], row: Int, cols: Array[Int]): Unit = {
    count += 1
    var i = 0
    while (i < cols.length) {
      val c = cols(i)
      val v = values(c)(row)
      if (v < mins(c)) mins(c) = v
      if (v > maxs(c)) maxs(c) = v
      sums(c) += v
      i += 1
    }
  }

  /** Merges another accumulator in, touching only the requested columns. */
  def mergeFrom(o: AggState, cols: Array[Int]): Unit = {
    count += o.count
    var i = 0
    while (i < cols.length) {
      val c = cols(i)
      if (o.mins(c) < mins(c)) mins(c) = o.mins(c)
      if (o.maxs(c) > maxs(c)) maxs(c) = o.maxs(c)
      sums(c) += o.sums(c)
      i += 1
    }
  }

  /** Evaluates one requested aggregate from the accumulated state. */
  def extract(spec: AggSpec): Double = spec.func match {
    case AggFunc.Count => count.toDouble
    case AggFunc.Min   => mins(spec.col)
    case AggFunc.Max   => maxs(spec.col)
    case AggFunc.Sum   => sums(spec.col)
    case AggFunc.Avg   => if (count == 0) Double.NaN else sums(spec.col) / count
  }

  def extractAll(specs: Seq[AggSpec]): Array[Double] = specs.map(extract).toArray

  override def toString: String =
    s"AggState(count=$count, mins=${mins.mkString(",")}, maxs=${maxs.mkString(",")}, sums=${sums.mkString(",")})"
}

object AggState {
  /** All column indices 0 until n — for build-time full aggregation. */
  def allCols(n: Int): Array[Int] = Array.range(0, n)

  /** Bytes one stored aggregate occupies (count + 3 doubles per column). */
  def storedBytes(nCols: Int): Long = 8L + 24L * nCols
}
