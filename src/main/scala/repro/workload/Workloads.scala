package repro.workload

import repro.core.{AggFunc, AggSpec}
import repro.geo.{Polygon, Pt}
import scala.util.Random

/** Query workloads of the evaluation (Section 4.1): the base workload
  * queries every neighborhood once; a skewed run queries a fixed random
  * 10% of neighborhoods; the combined workload is base + k skewed runs.
  * Selectivity experiments use rectangles grown around the data centroid
  * until they contain a target fraction of the points.
  */
object Workloads {

  /** The paper's default query output: 7 aggregates touching every value
    * column at least once (columns: 0 = dropoff_ts, 1 = passenger_count,
    * 2 = trip_distance).
    */
  val SevenAggs: Seq[AggSpec] = Seq(
    AggSpec(AggFunc.Count),
    AggSpec(AggFunc.Min, 0), AggSpec(AggFunc.Max, 0),
    AggSpec(AggFunc.Sum, 1), AggSpec(AggFunc.Max, 1),
    AggSpec(AggFunc.Sum, 2), AggSpec(AggFunc.Avg, 2),
  )

  /** Prefixes for the number-of-aggregates sweep (Figure 1): 1, 2, 4, 8.
    * The 8th adds AVG(passenger_count).
    */
  def aggSubset(k: Int): Seq[AggSpec] = {
    val eight = SevenAggs :+ AggSpec(AggFunc.Avg, 1)
    require(k >= 1 && k <= eight.length)
    eight.take(k)
  }

  /** Fraction of the polygons a skewed run queries, and the seed of
    * their selection.
    */
  private val SkewFrac = 0.1
  private val SkewSeed = 11L

  /** Indices of the skewed 10% selection (uniform without replacement). */
  def skewedIndices(numPolys: Int): IndexedSeq[Int] = {
    val k = math.max(1, math.round(numPolys * SkewFrac).toInt)
    new Random(SkewSeed).shuffle((0 until numPolys).toVector).take(k).sorted
  }

  /** base + k repetitions of the skewed run, as polygon indices in query
    * order (base first, then the skewed runs — the paper's protocol).
    */
  def combined(numPolys: Int, skewRuns: Int): IndexedSeq[Int] = {
    val skew = skewedIndices(numPolys)
    (0 until numPolys) ++ Seq.fill(skewRuns)(skew).flatten
  }

  /** A rectangle polygon around the data centroid containing approximately
    * `frac` of the points, found by binary search on the rectangle scale
    * (monotone, 40 halvings). Returns the polygon and the selectivity it
    * achieves.
    */
  def selectivityRect(lons: Array[Double], lats: Array[Double],
                      frac: Double): (Polygon, Double) = {
    require(lons.length == lats.length && lons.nonEmpty)
    val n  = lons.length
    val cx = lons.sum / n
    val cy = lats.sum / n
    val hw0 = math.max(lons.max - cx, cx - lons.min)
    val hh0 = math.max(lats.max - cy, cy - lats.min)

    def countIn(scale: Double): Long = {
      val hw = hw0 * scale
      val hh = hh0 * scale
      var c  = 0L
      var i  = 0
      while (i < n) {
        if (math.abs(lons(i) - cx) <= hw && math.abs(lats(i) - cy) <= hh) c += 1
        i += 1
      }
      c
    }

    var lo = 0.0
    var hi = 1.0
    var i  = 0
    while (i < 40) {
      val mid = (lo + hi) / 2
      if (countIn(mid).toDouble / n < frac) lo = mid else hi = mid
      i += 1
    }
    val s  = hi
    val hw = hw0 * s
    val hh = hh0 * s
    val poly = Polygon(IndexedSeq(
      Pt(cx - hw, cy - hh), Pt(cx + hw, cy - hh), Pt(cx + hw, cy + hh), Pt(cx - hw, cy + hh)))
    (poly, countIn(s).toDouble / n)
  }
}
