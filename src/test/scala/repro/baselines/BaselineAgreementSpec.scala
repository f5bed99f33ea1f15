package repro.baselines

import repro.{SparkSpec, TestData}
import repro.core.AggState
import repro.geo.{BBox, Pt}
import repro.s2.{CellId, Covering}
import scala.util.Random

/** All on-the-fly baselines must agree with brute force (and hence with
  * the GeoBlock, tested elsewhere) on the workloads they support.
  */
class BaselineAgreementSpec extends SparkSpec {

  private lazy val raw = TestData.raw
  private lazy val bs  = new BinarySearchIndex(raw)
  private lazy val bt  = new BTreeIndex(raw)
  private lazy val ph  = new PHTree(raw)
  private lazy val rt  = new RTree(raw)

  private val rnd = new Random(23)
  private def randomCells(level: Int, k: Int): Seq[CellId] = {
    val cells = Seq.fill(k)(CellId(raw.keys(rnd.nextInt(raw.size))).parent(level)).distinct
    cells.filterNot(c => cells.exists(o => o.id != c.id && o.contains(c)))
  }

  test("BinarySearch aggregates match brute force") {
    for (level <- Seq(12, 15, 17); _ <- 1 to 5) {
      val cells = randomCells(level, 3)
      val got   = bs.aggregateCells(cells, AggState.allCols(3))
      val want  = TestData.bruteAggCells(raw, cells)
      assert(got.count == want.count)
      if (want.count > 0) (0 until 3).foreach { c =>
        assert(got.mins(c) == want.mins(c) && got.maxs(c) == want.maxs(c))
      }
    }
  }

  test("BinarySearch counts match brute force") {
    for (level <- Seq(13, 16); _ <- 1 to 5) {
      val cells = randomCells(level, 4)
      assert(bs.aggregateCells(cells, Array.empty).count == TestData.bruteCountCells(raw, cells))
    }
  }

  test("BTree aggregates equal BinarySearch aggregates") {
    for (level <- Seq(12, 15, 17); _ <- 1 to 5) {
      val cells = randomCells(level, 3)
      val a = bs.aggregateCells(cells, AggState.allCols(3))
      val b = bt.aggregateCells(cells, AggState.allCols(3))
      assert(a.count == b.count)
      (0 until 3).foreach { c =>
        assert(a.mins(c) == b.mins(c) && a.maxs(c) == b.maxs(c))
        assert(math.abs(a.sums(c) - b.sums(c)) < 1e-9 * math.abs(a.sums(c)).max(1.0))
      }
    }
  }

  test("BTree counts equal BinarySearch counts") {
    for (level <- Seq(13, 17); _ <- 1 to 5) {
      val cells = randomCells(level, 4)
      assert(bt.aggregateCells(cells, Array.empty).count ==
        bs.aggregateCells(cells, Array.empty).count)
    }
  }

  test("PHTree rectangle aggregation matches brute force point filter") {
    for (_ <- 1 to 10) {
      val i  = rnd.nextInt(raw.size)
      val w  = 0.002 + rnd.nextDouble() * 0.05
      val h  = 0.002 + rnd.nextDouble() * 0.05
      val b  = BBox(raw.lons(i) - w, raw.lats(i) - h, raw.lons(i) + w, raw.lats(i) + h)
      val qx0 = CellId.xCoord(b.minX); val qx1 = CellId.xCoord(b.maxX)
      val qy0 = CellId.yCoord(b.minY); val qy1 = CellId.yCoord(b.maxY)
      val got = ph.aggregateRect(b, AggState.allCols(3))
      // reference on the same integer-grid semantics the index uses
      val want = new AggState(3)
      val all  = AggState.allCols(3)
      var j = 0
      while (j < raw.size) {
        val x = CellId.xCoord(raw.lons(j)); val y = CellId.yCoord(raw.lats(j))
        if (x >= qx0 && x <= qx1 && y >= qy0 && y <= qy1) want.addTuple(raw.values, j, all)
        j += 1
      }
      assert(got.count == want.count, s"box $b")
      if (want.count > 0) (0 until 3).foreach { c =>
        assert(got.mins(c) == want.mins(c) && got.maxs(c) == want.maxs(c))
      }
    }
  }

  test("PHTree empty rectangle yields empty aggregate") {
    val st = ph.aggregateRect(BBox(-40, 30, -39, 31), AggState.allCols(3))
    assert(st.count == 0)
  }

  test("RTree counts match brute force point filter") {
    for (_ <- 1 to 10) {
      val i = rnd.nextInt(raw.size)
      val w = 0.002 + rnd.nextDouble() * 0.05
      val h = 0.002 + rnd.nextDouble() * 0.05
      val b = BBox(raw.lons(i) - w, raw.lats(i) - h, raw.lons(i) + w, raw.lats(i) + h)
      var want = 0L
      var j = 0
      while (j < raw.size) {
        if (b.contains(Pt(raw.lons(j), raw.lats(j)))) want += 1
        j += 1
      }
      assert(rt.countRect(b) == want, s"box $b")
    }
  }

  test("RTree count of the whole world equals the data size") {
    assert(rt.countRect(BBox(-180, -90, 180, 90)) == raw.size.toLong)
  }

  test("RTree count of an empty region is zero") {
    assert(rt.countRect(BBox(-40, 30, -39, 31)) == 0L)
  }

  test("baselines agree with the GeoBlock on polygon coverings") {
    TestData.polys.grouped(20).map(_.head).foreach { poly =>
      val cells = Covering.exterior(poly, 17)
      val bsCount = bs.aggregateCells(cells, Array.empty).count
      assert(bsCount == TestData.countOf(TestData.block17, poly))
      assert(bt.aggregateCells(cells, Array.empty).count == bsCount)
    }
  }

  test("interior-rectangle engines cover no more points than the covering engines") {
    TestData.polys.grouped(30).map(_.head).foreach { poly =>
      val rect     = Covering.interiorRect(poly)
      val rtCount  = rt.countRect(rect)
      val covCount = TestData.countOf(TestData.block17, poly)
      assert(rtCount <= covCount, s"rt=$rtCount cov=$covCount")
    }
  }

  test("index sizes are positive and bounded sanely") {
    assert(bs.sizeBytes == 0)
    assert(bt.sizeBytes > 8L * raw.size) // leaf keys + separators
    assert(ph.sizeBytes > 0 && rt.sizeBytes > 0)
    // GeoBlock header is far smaller than the point indexes
    assert(TestData.block17.headerSizeBytes < bt.sizeBytes)
  }
}
