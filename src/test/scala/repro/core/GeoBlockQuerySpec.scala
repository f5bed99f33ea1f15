package repro.core

import repro.{SparkSpec, TestData}
import repro.geo.{Polygon, Pt}
import repro.s2.{CellId, Covering}
import scala.util.Random

/** V1 query correctness: COUNT and SELECT against brute force over the
  * raw data, plus the paper's error-bound guarantees.
  */
class GeoBlockQuerySpec extends SparkSpec {

  private lazy val raw   = TestData.raw
  private lazy val block = TestData.block17

  private val rnd = new Random(11)

  private def randomCell(level: Int): CellId = {
    // pick a cell around a random data point so it is usually non-empty
    val i = rnd.nextInt(raw.size)
    CellId(raw.keys(i)).parent(level)
  }

  /** COUNT of one cell, read through `selectCells` with no value column. */
  private def countCell(cell: CellId): Long = TestData.countOf(block, cell)

  test("countCell matches brute force for random cells at various levels") {
    for (level <- Seq(10, 13, 15, 17); _ <- 1 to 10) {
      val cell = randomCell(level)
      assert(countCell(cell) == TestData.bruteCountCells(raw, Seq(cell)),
        s"cell $cell")
    }
  }

  test("COUNT of an empty region is zero") {
    // A cell in the middle of the Atlantic
    val cell = CellId.fromPoint(-40.0, 30.0, 17)
    assert(countCell(cell) == 0L)
  }

  test("selectCells matches brute force aggregates for random cells") {
    for (level <- Seq(12, 15, 17); _ <- 1 to 8) {
      val cells = Seq.fill(3)(randomCell(level)).distinct
        .filterNot(c => c.level > 17)
      // de-overlap: drop cells contained in another of the set
      val disjoint = cells.filterNot(c => cells.exists(o => o.id != c.id && o.contains(c)))
      val got   = block.selectCells(disjoint, AggState.allCols(3))
      val want  = TestData.bruteAggCells(raw, disjoint)
      assert(got.count == want.count)
      (0 until 3).foreach { c =>
        if (want.count > 0) {
          assert(got.mins(c) == want.mins(c))
          assert(got.maxs(c) == want.maxs(c))
          assert(math.abs(got.sums(c) - want.sums(c)) < 1e-6 * math.abs(want.sums(c)).max(1.0))
        }
      }
    }
  }

  test("count query equals sum of per-cell counts of its covering") {
    TestData.polys.take(20).foreach { poly =>
      val cells = Covering.exterior(poly, 17)
      val perCell = cells.map(TestData.countOf(block, _)).sum
      assert(TestData.countOf(block, poly) == perCell)
    }
  }

  test("SELECT COUNT equals the COUNT fast path for every neighborhood") {
    // COUNT-only, COUNT next to scanned columns, and the raw rows under
    // the covering.
    TestData.polys.foreach { poly =>
      val rows = Covering.exterior(poly, 17).map { c =>
        val (from, until) = raw.rangeOf(c)
        (until - from).toLong
      }.sum
      val withCols = block.select(poly, repro.workload.Workloads.SevenAggs)(0).toLong
      assert(TestData.countOf(block, poly) == rows && withCols == rows, s"poly mismatch")
    }
  }

  test("covering count is never below the exact polygon count (false positives only)") {
    TestData.polys.take(30).foreach { poly =>
      val exact    = TestData.exactPolygonCount(raw, poly)
      val measured = TestData.countOf(block, poly)
      assert(measured >= exact, s"measured=$measured exact=$exact")
    }
  }

  test("relative count error shrinks with the block level") {
    val polysWithData = TestData.polys.filter(p => TestData.exactPolygonCount(raw, p) > 500)
    assert(polysWithData.size > 10)
    def meanErr(level: Int): Double = {
      val b = GeoBlock.buildFromSorted(raw, level)
      val errs = polysWithData.map { p =>
        val exact = TestData.exactPolygonCount(raw, p)
        (TestData.countOf(b, p) - exact).toDouble / exact
      }
      errs.sum / errs.size
    }
    val e13 = meanErr(13)
    val e15 = meanErr(15)
    val e17 = meanErr(17)
    assert(e13 > e15 && e15 > e17, s"e13=$e13 e15=$e15 e17=$e17")
    // At SF=0.01 neighborhoods are small relative to a ~280 m cell
    // diagonal, so the boundary blow-up is still noticeable at level 17.
    assert(e17 < 0.35, s"level-17 error too high: $e17")
  }

  test("query for a polygon outside the data returns empty aggregates") {
    val far = Polygon(IndexedSeq(Pt(10, 10), Pt(11, 10), Pt(11, 11), Pt(10, 11)))
    // Empty results are the identities of each aggregate, not SQL NULL.
    val res = block.select(far, Seq(AggSpec(AggFunc.Count), AggSpec(AggFunc.Sum, 2),
      AggSpec(AggFunc.Min, 2), AggSpec(AggFunc.Max, 2), AggSpec(AggFunc.Avg, 2)))
    assert(res(0) == 0.0 && res(1) == 0.0)
    assert(res(2) == Double.PositiveInfinity && res(3) == Double.NegativeInfinity)
    assert(res(4).isNaN)
  }

  test("select honors the requested aggregate subset") {
    val poly  = TestData.polys(50)
    val specs = Seq(AggSpec(AggFunc.Count), AggSpec(AggFunc.Min, 0),
      AggSpec(AggFunc.Avg, 2))
    val res = block.select(poly, specs)
    assert(res.length == 3)
    val full = block.selectCells(Covering.exterior(poly, 17), AggState.allCols(3))
    assert(res(0) == full.count.toDouble)
    assert(res(1) == full.mins(0))
    if (full.count > 0)
      assert(math.abs(res(2) - full.sums(2) / full.count) < 1e-9)
  }

  test("aggregate values are consistent with data ranges") {
    val poly = TestData.polys(100)
    val res  = block.select(poly, repro.workload.Workloads.SevenAggs)
    val cnt  = res(0)
    if (cnt > 0) {
      val minTs = res(1); val maxTs = res(2)
      assert(minTs >= 1420070400.0 && maxTs <= 1420070400.0 + 7776000.0)
      assert(minTs <= maxTs)
      val avgDist = res(6)
      assert(avgDist >= 0.3 && avgDist <= 29.3)
    }
  }

  test("cellRange rejects cells deeper than the block level") {
    val deep = CellId(raw.keys(0)) // leaf
    intercept[IllegalArgumentException] { block.cellRange(deep) }
  }

  test("count via offsets equals count via scanning headers") {
    for (_ <- 1 to 20) {
      val cell = randomCell(13)
      val (from, until) = block.cellRange(cell)
      val scanned = (from until until).map(block.counts(_)).sum
      assert(TestData.countOf(block, cell) == scanned)
    }
  }
}
