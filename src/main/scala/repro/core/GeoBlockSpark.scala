package repro.core

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.s2.CellId

/** The distributed dataflow around GeoBlocks.
  *
  * Build side (the paper's extract-and-reorganize + header construction,
  * expressed over Catalyst):
  *   1. [[withLeafKey]] maps lon/lat to the level-30 Hilbert key,
  *   2. [[sortByKey]] is the "Sorting" phase,
  *   3. [[headerDF]] computes the CellBlock headers with a groupBy over
  *      the block-level cell,
  *   4. [[collectBlock]] materializes the driver-resident [[GeoBlock]],
  *      deriving the raw-data offsets from the counts in cell order.
  *
  * Query side: [[queryPointsDF]] aggregates raw points inside a covering
  * (the on-the-fly reference), and [[queryHeaderDF]] answers the same
  * covering from the pre-aggregated header by a range join — the
  * "combine block aggregates with spatial joins" formulation. Both are
  * oracle-checked against DuckDB in the test suite.
  */
object GeoBlockSpark {

  val KeyCol = "cell_key"

  private val leafKeyUdf = udf((lon: Double, lat: Double) => CellId.leafKey(lon, lat))

  /** Adds the level-30 spatial key column derived from lon/lat. */
  def withLeafKey(points: DataFrame, lonCol: String = "lon", latCol: String = "lat"): DataFrame =
    points.withColumn(KeyCol, leafKeyUdf(col(lonCol), col(latCol)))

  /** The "Sorting" phase: reorganize by ascending spatial key. */
  def sortByKey(pointsWithKey: DataFrame): DataFrame = pointsWithKey.sort(KeyCol)

  /** Block-level cell id of a leaf key, in pure Catalyst bit arithmetic
    * (mirrors [[GeoBlock.blockKeyOf]]).
    */
  def blockKeyExpr(key: Column, level: Int): Column = {
    val shift = 2 * (CellId.MaxLevel - level)
    shiftleft(shiftrightunsigned(key, shift + 1), shift + 1)
      .bitwiseOR(lit(1L << shift))
  }

  /** CellBlock headers as a DataFrame: one row per non-empty block-level
    * cell with count and MIN/MAX/SUM per value column. Output columns:
    * cell, cnt, min_/max_/sum_<col>.
    */
  def headerDF(pointsWithKey: DataFrame, level: Int, valueCols: Seq[String]): DataFrame = {
    val aggs: Seq[Column] =
      count(lit(1)).as("cnt") +:
        valueCols.flatMap { c =>
          Seq(min(col(c)).as(s"min_$c"), max(col(c)).as(s"max_$c"), sum(col(c)).as(s"sum_$c"))
        }
    pointsWithKey
      .groupBy(blockKeyExpr(col(KeyCol), level).as("cell"))
      .agg(aggs.head, aggs.tail: _*)
  }

  /** Collects a header DataFrame into the driver-resident [[GeoBlock]].
    * Offsets are the exclusive running sum of the counts in cell order.
    */
  def collectBlock(header: DataFrame, level: Int, valueCols: Seq[String]): GeoBlock = {
    val rows  = header.sort("cell").collect()
    val n     = rows.length
    val nCols = valueCols.length
    val keys  = new Array[Long](n)
    val offs  = new Array[Long](n)
    val cnts  = new Array[Long](n)
    val mins  = Array.fill(nCols)(new Array[Double](n))
    val maxs  = Array.fill(nCols)(new Array[Double](n))
    val sums  = Array.fill(nCols)(new Array[Double](n))
    var offset = 0L
    var i = 0
    while (i < n) {
      val r = rows(i)
      keys(i) = r.getAs[Long]("cell")
      cnts(i) = r.getAs[Long]("cnt")
      offs(i) = offset
      offset += cnts(i)
      var c = 0
      while (c < nCols) {
        mins(c)(i) = toDouble(r.getAs[Any](s"min_${valueCols(c)}"))
        maxs(c)(i) = toDouble(r.getAs[Any](s"max_${valueCols(c)}"))
        sums(c)(i) = toDouble(r.getAs[Any](s"sum_${valueCols(c)}"))
        c += 1
      }
      i += 1
    }
    new GeoBlock(level, valueCols.toArray, keys, offs, cnts, mins, maxs, sums)
  }

  private def toDouble(a: Any): Double = a match {
    case d: Double               => d
    case f: Float                => f.toDouble
    case l: Long                 => l.toDouble
    case i: Int                  => i.toDouble
    case b: java.math.BigDecimal => b.doubleValue
    case x                       => x.toString.toDouble
  }

  /** Collects the sorted columnar raw data to the driver — the substrate
    * every driver-side structure (GeoBlock single-pass build and all
    * baselines) is built from.
    */
  def extractAndReorganize(points: DataFrame, valueCols: Seq[String],
                           lonCol: String = "lon", latCol: String = "lat"): RawColumns = {
    val sorted = sortByKey(withLeafKey(points, lonCol, latCol))
      .select((Seq(KeyCol, lonCol, latCol) ++ valueCols).map(col): _*)
    val rows = sorted.collect()
    val n    = rows.length
    val keys = new Array[Long](n)
    val lons = new Array[Double](n)
    val lats = new Array[Double](n)
    val vals = Array.fill(valueCols.length)(new Array[Double](n))
    var i = 0
    while (i < n) {
      val r = rows(i)
      keys(i) = r.getLong(0)
      lons(i) = toDouble(r.get(1))
      lats(i) = toDouble(r.get(2))
      var c = 0
      while (c < valueCols.length) { vals(c)(i) = toDouble(r.get(3 + c)); c += 1 }
      i += 1
    }
    new RawColumns(keys, lons, lats, valueCols.toArray, vals)
  }

  /** A covering as a DataFrame of inclusive leaf-key ranges (lo, hi). */
  def coveringDF(spark: SparkSession, cells: Seq[CellId]): DataFrame = {
    import spark.implicits._
    cells.map(c => (c.rangeMin, c.rangeMax)).toDF("lo", "hi")
  }

  private def resultAggs(valueCols: Seq[String]): Seq[Column] =
    count(lit(1)).as("cnt") +:
      valueCols.flatMap { c =>
        Seq(min(col(c)).as(s"min_$c"), max(col(c)).as(s"max_$c"), sum(col(c)).as(s"sum_$c"))
      }

  /** On-the-fly distributed aggregation: raw points range-joined against
    * the covering, then aggregated — the ground truth for the covering.
    */
  def queryPointsDF(pointsWithKey: DataFrame, covering: DataFrame,
                    valueCols: Seq[String]): DataFrame = {
    val aggs = resultAggs(valueCols)
    pointsWithKey
      .join(covering, col(KeyCol) >= col("lo") && col(KeyCol) <= col("hi"))
      .agg(aggs.head, aggs.tail: _*)
  }

  /** Pre-aggregated distributed query: the header range-joined against
    * the covering, combining aggregates of aggregates. Covering cells
    * must be at most the block level (disjointness of the covering makes
    * the join match each CellBlock at most once).
    */
  def queryHeaderDF(header: DataFrame, covering: DataFrame,
                    valueCols: Seq[String]): DataFrame = {
    val aggs: Seq[Column] =
      sum(col("cnt")).as("cnt") +:
        valueCols.flatMap { c =>
          Seq(min(col(s"min_$c")).as(s"min_$c"),
              max(col(s"max_$c")).as(s"max_$c"),
              sum(col(s"sum_$c")).as(s"sum_$c"))
        }
    header
      .join(covering, col("cell") >= col("lo") && col("cell") <= col("hi"))
      .agg(aggs.head, aggs.tail: _*)
  }
}
