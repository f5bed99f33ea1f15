package repro.bench

import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel
import repro.{SparkSpec, SynthData}
import repro.baselines.{BTreeIndex, BinarySearchIndex, PHTree, RTree}
import repro.bench.BenchSpec.{sink, timeMs}
import repro.core._
import repro.geo.{BBox, Polygon}
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

/** Shared evaluation fixture: the synthetic taxi data at SF=0.1 run
  * through the Spark extract-and-reorganize phase once, the neighborhood
  * polygons, and lazily-built engines at the paper's default block
  * level 17.
  *
  * `sortMs` is the measured wall time of the Spark sorting phase (key
  * assignment + sort + collect into the columnar layout) — the "Sorting"
  * column of Table 1, identical for all sorting-based engines. The input
  * is generated and cached before the timer starts, so data generation
  * is not part of it.
  */
final class Fixture(spark: SparkSession) {

  val valueCols: Seq[String] = SynthData.TaxiValueCols

  val (raw: RawColumns, sortMs: Double) = {
    val points = SynthData.taxiTrips(spark, Fixture.Sf).persist(StorageLevel.MEMORY_ONLY)
    points.count()
    try timeMs(GeoBlockSpark.extractAndReorganize(points, valueCols))
    finally points.unpersist()
  }

  val polys: IndexedSeq[Polygon] = Neighborhoods.generate()

  val DefaultLevel = 17

  /** The base workload in prepared (cell) form at the default level. */
  lazy val preparedBase: IndexedSeq[PreparedQuery] = prepare(polys, DefaultLevel)

  def prepare(ps: Seq[Polygon], level: Int): IndexedSeq[PreparedQuery] =
    ps.map(PreparedQuery(_, level)).toIndexedSeq

  lazy val (block: GeoBlock, blockBuildMs: Double) =
    timeMs(GeoBlock.buildFromSorted(raw, DefaultLevel))

  def blockAt(level: Int): GeoBlock = GeoBlock.buildFromSorted(raw, level)

  lazy val (binarySearch: BinarySearchIndex, binarySearchBuildMs: Double) =
    timeMs(new BinarySearchIndex(raw))

  lazy val (btree: BTreeIndex, btreeBuildMs: Double) =
    timeMs(new BTreeIndex(raw))

  lazy val (phtree: PHTree, phtreeBuildMs: Double) =
    timeMs(new PHTree(raw))

  lazy val (rtree: RTree, rtreeBuildMs: Double) =
    timeMs(new RTree(raw))

  /** Exact per-polygon point counts (ground truth for relative error):
    * the points under each polygon's exterior covering that lie inside
    * it. The covering contains the polygon, so no point inside is missed.
    */
  lazy val exactCounts: Array[Long] = polys.indices.map { i =>
    val poly = polys(i)
    var n = 0L
    preparedBase(i).cells.foreach { c =>
      val (from, until) = raw.rangeOf(c)
      var j = from
      while (j < until) {
        if (poly.containsXY(raw.lons(j), raw.lats(j))) n += 1
        j += 1
      }
    }
    n
  }.toArray

  // ---- engine query closures over prepared (cell-based) queries ----

  def v1Select(block: GeoBlock, specs: Seq[AggSpec]): PreparedQuery => Double = {
    val cols = AggSpec.neededCols(specs)
    q => block.selectCells(q.cells, cols).extractAll(specs).sum
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
    val (_, ms) = timeMs { queries.foreach(q => acc += engine(q)) }
    sink += acc
    ms
  }
}

object Fixture {
  /** Bench scale factor: ~1.2 M points, the paper's 12 M rides ÷ 10. */
  val Sf = 0.1

  /** One fixture per JVM — benches share the sorted data. */
  lazy val shared: Fixture = new Fixture(SparkSpec.shared)
}
