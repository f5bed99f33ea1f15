package repro

import repro.core.{AggFunc, AggSpec, GeoBlock, GeoBlockSpark, RawColumns}
import repro.geo.Polygon
import repro.s2.CellId
import repro.workload.Neighborhoods

/** Shared small fixtures for unit tests: one Spark extract of the
  * synthetic taxi data at SF=0.01 (~120 k rows), reused across suites.
  */
object TestData {

  val ValueCols: Seq[String] = SynthData.TaxiValueCols

  lazy val raw: RawColumns =
    GeoBlockSpark.extractAndReorganize(
      SynthData.taxiTrips(SparkSpec.shared, 0.01), ValueCols)

  lazy val block17: GeoBlock = GeoBlock.buildFromSorted(raw, 17)
  lazy val block14: GeoBlock = GeoBlock.buildFromSorted(raw, 14)

  lazy val polys: IndexedSeq[Polygon] = Neighborhoods.generate()

  /** COUNT of a V1 polygon query. */
  def countOf(block: GeoBlock, poly: Polygon): Long =
    block.select(poly, Seq(AggSpec(AggFunc.Count)))(0).toLong

  /** COUNT of one query cell: a read that scans no value column. */
  def countOf(block: GeoBlock, cell: CellId): Long =
    block.selectCells(Seq(cell), Array.empty).count

  /** Brute-force count of raw tuples whose leaf key falls in any of the
    * given cells (cells assumed disjoint).
    */
  def bruteCountCells(raw: RawColumns, cells: Seq[CellId]): Long = {
    var c = 0L
    var i = 0
    while (i < raw.size) {
      val k = raw.keys(i)
      if (cells.exists(cell => k >= cell.rangeMin && k <= cell.rangeMax)) c += 1
      i += 1
    }
    c
  }

  /** Brute-force aggregate over raw tuples within the given cells. */
  def bruteAggCells(raw: RawColumns, cells: Seq[CellId]): core.AggState = {
    val st   = new core.AggState(raw.nCols)
    val cols = core.AggState.allCols(raw.nCols)
    var i = 0
    while (i < raw.size) {
      val k = raw.keys(i)
      if (cells.exists(cell => k >= cell.rangeMin && k <= cell.rangeMax))
        st.addTuple(raw.values, i, cols)
      i += 1
    }
    st
  }

  /** Exact number of raw points strictly inside the polygon. */
  def exactPolygonCount(raw: RawColumns, poly: Polygon): Long = {
    var c = 0L
    var i = 0
    while (i < raw.size) {
      if (poly.contains(repro.geo.Pt(raw.lons(i), raw.lats(i)))) c += 1
      i += 1
    }
    c
  }
}
