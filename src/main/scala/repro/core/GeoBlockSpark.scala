package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.api.java.UDF2
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DoubleType, LongType}
import repro.s2.CellId

/** The distributed dataflow around GeoBlocks.
  *
  * Build side (the paper's extract-and-reorganize + header construction,
  * expressed over Catalyst):
  *   1. [[withLeafKey]] maps lon/lat to the level-30 Hilbert key,
  *   2. [[sortByKey]] is the "Sorting" phase,
  *   3. [[headerDF]] computes the CellBlock headers with a groupBy over
  *      the block-level cell,
  *   4. [[collectBlock]] materializes the driver-resident [[GeoBlock]].
  *
  * Queries are answered on the driver by [[GeoBlock]] and
  * [[AdaptiveGeoBlock]].
  */
object GeoBlockSpark {

  val KeyCol = "cell_key"

  /** Coordinate columns of the input points. */
  val LonCol = "lon"
  val LatCol = "lat"

  /** Untyped in its inputs, so Spark passes each coordinate as it is: a
    * null reaches the check instead of becoming a null key, and no value
    * goes through an encoder.
    */
  private val leafKey: UDF2[java.lang.Double, java.lang.Double, Long] = (lon, lat) => {
    if (lon == null || lat == null)
      throw new IllegalArgumentException(s"null coordinate: lon=$lon, lat=$lat")
    CellId.leafKey(lon, lat)
  }
  private val leafKeyUdf = udf(leafKey, LongType)

  /** Adds the level-30 spatial key column derived from lon/lat. */
  def withLeafKey(points: DataFrame): DataFrame =
    points.withColumn(KeyCol,
      leafKeyUdf(col(LonCol).cast(DoubleType), col(LatCol).cast(DoubleType)))

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

  /** The failure of either build path on a null value: SQL's MIN, MAX
    * and SUM would skip it while its point still counts.
    */
  private def nullValue(c: String, where: String): IllegalArgumentException =
    new IllegalArgumentException(s"null value: $c=null at $where")

  /** CellBlock headers as a DataFrame: one row per non-empty block-level
    * cell with count and, per value column, its non-null count and
    * MIN/MAX/SUM. Output columns: cell, cnt, n_/min_/max_/sum_<col>.
    */
  def headerDF(pointsWithKey: DataFrame, level: Int, valueCols: Seq[String]): DataFrame = {
    val aggs: Seq[Column] =
      count(lit(1)).as("cnt") +:
        valueCols.flatMap { c =>
          val v = col(c).cast(DoubleType)
          Seq(count(v).as(s"n_$c"), min(v).as(s"min_$c"), max(v).as(s"max_$c"),
              sum(v).as(s"sum_$c"))
        }
    pointsWithKey
      .groupBy(blockKeyExpr(col(KeyCol), level).as("cell"))
      .agg(aggs.head, aggs.tail: _*)
  }

  /** Collects a header DataFrame into the driver-resident [[GeoBlock]],
    * in cell order. A cell holding a null value fails with an
    * `IllegalArgumentException` naming its column.
    */
  def collectBlock(header: DataFrame, level: Int, valueCols: Seq[String]): GeoBlock = {
    val rows  = header.sort("cell").collect()
    val n     = rows.length
    val nCols = valueCols.length
    val keys  = new Array[Long](n)
    val cnts  = new Array[Long](n)
    val mins  = Array.fill(nCols)(new Array[Double](n))
    val maxs  = Array.fill(nCols)(new Array[Double](n))
    val sums  = Array.fill(nCols)(new Array[Double](n))
    var i = 0
    while (i < n) {
      val r = rows(i)
      keys(i) = r.getAs[Long]("cell")
      cnts(i) = r.getAs[Long]("cnt")
      var c = 0
      while (c < nCols) {
        if (r.getAs[Long](s"n_${valueCols(c)}") != cnts(i))
          throw nullValue(valueCols(c), s"cell=${keys(i)}")
        mins(c)(i) = r.getAs[Double](s"min_${valueCols(c)}")
        maxs(c)(i) = r.getAs[Double](s"max_${valueCols(c)}")
        sums(c)(i) = r.getAs[Double](s"sum_${valueCols(c)}")
        c += 1
      }
      i += 1
    }
    new GeoBlock(level, valueCols.toArray, keys, cnts, mins, maxs, sums)
  }

  /** Collects the sorted columnar raw data to the driver — the substrate
    * every driver-side structure (GeoBlock single-pass build and all
    * baselines) is built from. A null value fails with an
    * `IllegalArgumentException` naming its column.
    */
  def extractAndReorganize(points: DataFrame, valueCols: Seq[String]): RawColumns = {
    val sorted = sortByKey(withLeafKey(points))
      .select(col(KeyCol) +: (Seq(LonCol, LatCol) ++ valueCols).map(col(_).cast(DoubleType)): _*)
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
      lons(i) = r.getDouble(1)
      lats(i) = r.getDouble(2)
      var c = 0
      while (c < valueCols.length) {
        if (r.isNullAt(3 + c))
          throw nullValue(valueCols(c), s"$KeyCol=${keys(i)}")
        vals(c)(i) = r.getDouble(3 + c)
        c += 1
      }
      i += 1
    }
    new RawColumns(keys, lons, lats, valueCols.toArray, vals)
  }
}
