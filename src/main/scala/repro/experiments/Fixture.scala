package repro.experiments

import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel
import repro.SynthData
import repro.baselines.{BTreeIndex, BinarySearchIndex, PHTree, RTree}
import repro.core._
import repro.geo.{BBox, Polygon, PolygonIndex}
import repro.s2.{CellId, Covering}
import repro.workload.Neighborhoods

/** A polygon query with its cell-based form precomputed: the exterior
  * covering at the block level (used by Blocks/BinarySearch/BTree) and
  * the interior rectangle (used by PHTree/RTree).
  *
  * The paper gives all engines "the same cell-based queries" — the
  * polygon-to-cells mapping is shared query preprocessing, identical for
  * every engine, so the timed benchmarks measure the engine-specific
  * work on a prepared query (see EXPERIMENTS.md, "Measurement notes").
  */
final case class PreparedQuery(poly: Polygon, cells: IndexedSeq[CellId], rect: BBox)

object PreparedQuery {
  def apply(poly: Polygon, level: Int): PreparedQuery =
    PreparedQuery(poly, Covering.exterior(poly, level), Covering.interiorRect(poly))
}

/** Shared evaluation fixture: the synthetic taxi data run through the
  * Spark extract-and-reorganize phase once, the neighborhood polygons,
  * and lazily-built engines at the paper's default block level 17.
  *
  * `sortMs` is the measured wall time of the Spark sorting phase (key
  * assignment + sort + collect into the columnar layout) — the "Sorting"
  * column of Table 1, identical for all sorting-based engines. The input
  * is generated and cached before the timer starts, so data generation
  * is not part of it.
  */
final class Fixture(val spark: SparkSession, val sf: Double) {

  val valueCols: Seq[String] = SynthData.TaxiValueCols

  val (raw: RawColumns, sortMs: Double) = {
    val points = SynthData.taxiTrips(spark, sf).persist(StorageLevel.MEMORY_ONLY)
    points.count()
    try Harness.timeMs(GeoBlockSpark.extractAndReorganize(points, valueCols))
    finally points.unpersist()
  }

  val polys: IndexedSeq[Polygon] = Neighborhoods.generate()

  val DefaultLevel = 17

  /** The base workload in prepared (cell) form at the default level. */
  lazy val preparedBase: IndexedSeq[PreparedQuery] = prepare(polys, DefaultLevel)

  def prepare(ps: Seq[Polygon], level: Int): IndexedSeq[PreparedQuery] =
    ps.map(PreparedQuery(_, level)).toIndexedSeq

  lazy val (block: GeoBlock, blockBuildMs: Double) =
    Harness.timeMs(GeoBlock.buildFromSorted(raw, DefaultLevel))

  def blockAt(level: Int): GeoBlock = GeoBlock.buildFromSorted(raw, level)

  lazy val (binarySearch: BinarySearchIndex, binarySearchBuildMs: Double) =
    Harness.timeMs(new BinarySearchIndex(raw))

  lazy val (btree: BTreeIndex, btreeBuildMs: Double) =
    Harness.timeMs(new BTreeIndex(raw))

  lazy val (phtree: PHTree, phtreeBuildMs: Double) =
    Harness.timeMs(new PHTree(raw))

  lazy val (rtree: RTree, rtreeBuildMs: Double) =
    Harness.timeMs(new RTree(raw))

  /** Exact per-polygon point counts (ground truth for relative error),
    * via the grid-bucketed polygon locator.
    */
  lazy val exactCounts: Array[Long] = {
    val idx = new PolygonIndex(polys)
    val out = new Array[Long](polys.length)
    var i = 0
    while (i < raw.size) {
      val p = idx.locate(raw.lons(i), raw.lats(i))
      if (p >= 0) out(p) += 1
      i += 1
    }
    out
  }

  // ---- engine query closures over prepared (cell-based) queries ----

  def v1Select(block: GeoBlock, specs: Seq[AggSpec]): PreparedQuery => Double = {
    val cols = AggSpec.neededCols(specs)
    if (specs.forall(_.func == AggFunc.Count)) {
      // COUNT-only queries take the paper's specialized fast path: only
      // the first and last contained CellBlock per query cell.
      q => {
        var t = 0L
        q.cells.foreach(t += block.countCell(_))
        t.toDouble * specs.length
      }
    } else {
      q => block.selectCells(q.cells, cols).extractAll(specs).sum
    }
  }

  def v2Select(v2: AdaptiveGeoBlock, specs: Seq[AggSpec]): PreparedQuery => Double =
    q => v2.selectCells(q.cells, specs).sum

  def bsSelect(specs: Seq[AggSpec]): PreparedQuery => Double = {
    val cols = AggSpec.neededCols(specs)
    q => binarySearch.aggregateCells(q.cells, cols).extractAll(specs).sum
  }

  def btSelect(specs: Seq[AggSpec]): PreparedQuery => Double = {
    val cols = AggSpec.neededCols(specs)
    q => btree.aggregateCells(q.cells, cols).extractAll(specs).sum
  }

  def phSelect(specs: Seq[AggSpec]): PreparedQuery => Double = {
    val cols = AggSpec.neededCols(specs)
    q => phtree.aggregateRect(q.rect, cols).extractAll(specs).sum
  }

  def rtCount: PreparedQuery => Double =
    q => rtree.countRect(q.rect).toDouble

  /** Total ms to run `queries` through an engine (sequential, single
    * driver thread — the paper's single-threaded query setting).
    */
  def runWorkload(engine: PreparedQuery => Double, queries: Seq[PreparedQuery]): Double = {
    var acc = 0.0
    val (_, ms) = Harness.timeMs { queries.foreach(q => acc += engine(q)) }
    Harness.sink += acc
    ms
  }
}

object Fixture {
  /** Bench scale factor: SF=0.1 (~1.2 M points) unless overridden via
    * -Drepro.sf.
    */
  def benchSf: Double = sys.props.get("repro.sf").map(_.toDouble).getOrElse(0.1)

  private var cached: Option[(Double, Fixture)] = None

  /** One fixture per (JVM, sf) — benches share the sorted data. */
  def forSpark(spark: SparkSession, sf: Double): Fixture = synchronized {
    cached match {
      case Some((s, f)) if s == sf => f
      case _ =>
        val f = new Fixture(spark, sf)
        cached = Some((sf, f))
        f
    }
  }
}
