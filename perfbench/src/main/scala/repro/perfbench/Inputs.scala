package repro.perfbench

import repro.core.RawColumns
import repro.geo.{Polygon, Pt}
import repro.s2.{CellId, Covering}
import repro.workload.Neighborhoods
import scala.util.Random

/** Query inputs, all derived from the run's seed. */
object Inputs {

  /** Order of one pass over `n` queries: pass `p` is a seeded shuffle. */
  def shuffledPass(n: Int, seed: Long, p: Int): Array[Int] =
    new Random(seed * 1000003L + p).shuffle((0 until n).toVector).toArray

  val NumLargeRects = 128

  /** Rectangles holding 5–50% of the points, grown around jittered
    * centres. Target fractions are drawn stratified (one per equal slice
    * of the range), so every seed asks for about the same total work.
    * The scale that reaches a target fraction is the fraction's quantile
    * of each point's normalized Chebyshev distance to the centre,
    * estimated on every 32nd point.
    */
  def largeRects(raw: RawColumns, seed: Long): IndexedSeq[Polygon] = {
    val stride = 32
    val m      = raw.size / stride
    val xs     = Array.tabulate(m)(i => raw.lons(i * stride))
    val ys     = Array.tabulate(m)(i => raw.lats(i * stride))
    val cx0    = xs.sum / m
    val cy0    = ys.sum / m
    val (minX, maxX, minY, maxY) = (xs.min, xs.max, ys.min, ys.max)
    val b   = Neighborhoods.Bounds
    val rnd = new Random(seed)
    val d   = new Array[Double](m)
    (0 until NumLargeRects).map { slice =>
      val frac = 0.05 + 0.45 * (slice + rnd.nextDouble()) / NumLargeRects
      val cx   = cx0 + (rnd.nextDouble() - 0.5) * 0.2 * b.width
      val cy   = cy0 + (rnd.nextDouble() - 0.5) * 0.2 * b.height
      val hw0  = math.max(maxX - cx, cx - minX)
      val hh0  = math.max(maxY - cy, cy - minY)
      var i = 0
      while (i < m) {
        d(i) = math.max(math.abs(xs(i) - cx) / hw0, math.abs(ys(i) - cy) / hh0)
        i += 1
      }
      java.util.Arrays.sort(d)
      val s  = d(math.min(m - 1, (frac * m).toInt))
      val hw = hw0 * s
      val hh = hh0 * s
      Polygon(IndexedSeq(Pt(cx - hw, cy - hh), Pt(cx + hw, cy - hh),
                         Pt(cx + hw, cy + hh), Pt(cx - hw, cy + hh)))
    }
  }

  val SkewRuns = 16

  /** The Fig 9/10 stream: the base workload (every polygon once) followed
    * by `SkewRuns` runs of a seeded 10% skewed selection, as polygon
    * indices in query order. The selection takes one polygon from each of
    * equal slices of the polygons ordered by covering size, so every seed
    * skews towards about the same amount of work.
    */
  def skewStream(cells: Array[IndexedSeq[CellId]], seed: Long): Array[Int] = {
    val n      = cells.length
    val k      = math.max(1, math.round(n * 0.1).toInt)
    val bySize = (0 until n).sortBy(i => (cells(i).length, i))
    val rnd    = new Random(seed)
    val skew   = (0 until k).map { s =>
      val lo = s * n / k
      bySize(lo + rnd.nextInt((s + 1) * n / k - lo))
    }.sorted
    ((0 until n) ++ Seq.fill(SkewRuns)(skew).flatten).toArray
  }

  /** Exterior coverings at the block level, one per polygon. */
  def coverings(polys: IndexedSeq[Polygon]): Array[IndexedSeq[CellId]] =
    polys.map(Covering.exterior(_, Env.Level)).toArray
}
