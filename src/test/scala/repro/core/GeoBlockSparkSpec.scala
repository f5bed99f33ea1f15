package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types.{DoubleType, StructField, StructType}
import repro.{SparkSpec, SynthData}

/** The Spark build steps: key assignment, sort and header grouping, and
  * how they treat coordinates that have no place on the grid.
  */
class GeoBlockSparkSpec extends SparkSpec {

  private lazy val points = SynthData.taxiTrips(spark, 0.002, seed = 21).cache()
  private lazy val keyed  = GeoBlockSpark.withLeafKey(points).cache()
  private val cols        = Seq("trip_distance", "passenger_count")

  test("withLeafKey agrees with the driver-side key function") {
    val rows = keyed.select("lon", "lat", GeoBlockSpark.KeyCol).limit(200).collect()
    rows.foreach { r =>
      val expected = repro.s2.CellId.leafKey(r.getDouble(0), r.getDouble(1))
      assert(r.getLong(2) == expected)
    }
  }

  test("sortByKey produces a globally sorted collect") {
    val keys = GeoBlockSpark.sortByKey(keyed).select(GeoBlockSpark.KeyCol)
      .collect().map(_.getLong(0))
    assert(keys.sliding(2).forall { case Array(a, b) => a <= b; case _ => true })
  }

  test("headerDF count sums to the input size") {
    val header = GeoBlockSpark.headerDF(keyed, 15, cols)
    val total  = header.agg(org.apache.spark.sql.functions.sum("cnt")).collect()(0).getLong(0)
    assert(total == points.count())
  }

  /** A valid point followed by one with the given coordinates and value. */
  private def withBadPoint(lon: java.lang.Double, lat: java.lang.Double,
                           v: java.lang.Double = 2.0): DataFrame =
    spark.createDataFrame(
      java.util.Arrays.asList(Row(-73.98, 40.75, 1.0), Row(lon, lat, v)),
      StructType(Seq("lon", "lat", "v").map(StructField(_, DoubleType))))

  /** Messages of the failure and all its causes. */
  private def failureText(f: => Any): String = {
    val e = intercept[Exception](f)
    Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
      .map(t => s"${t.getClass.getName}: ${t.getMessage}").mkString("\n")
  }

  private val badPoints: Seq[(java.lang.Double, java.lang.Double, String)] = Seq(
    (Double.NaN, 40.75, "lon=NaN"),
    (-73.98, Double.NaN, "lat=NaN"),
    (-200.0, 40.75, "lon=-200.0"),
    (-73.98, 95.0, "lat=95.0"),
    (null, 40.75, "lon=null"),
    (-73.98, null, "lat=null"))

  test("extractAndReorganize rejects NaN, out-of-world and null coordinates by value") {
    badPoints.foreach { case (lon, lat, named) =>
      val text = failureText(GeoBlockSpark.extractAndReorganize(withBadPoint(lon, lat), Seq("v")))
      assert(text.contains("IllegalArgumentException") && text.contains(named), text)
    }
    val text = failureText(
      GeoBlockSpark.extractAndReorganize(withBadPoint(-73.98, 40.75, null), Seq("v")))
    assert(text.contains("IllegalArgumentException") && text.contains("null value: v=null"), text)
  }

  test("collectBlock(headerDF) rejects NaN, out-of-world and null coordinates by value") {
    badPoints.foreach { case (lon, lat, named) =>
      val keyed = GeoBlockSpark.withLeafKey(withBadPoint(lon, lat))
      val text  = failureText(
        GeoBlockSpark.collectBlock(GeoBlockSpark.headerDF(keyed, 15, Seq("v")), 15, Seq("v")))
      assert(text.contains("IllegalArgumentException") && text.contains(named), text)
    }
    // SQL's MIN/MAX/SUM would skip a null value while COUNT kept its
    // point; the header must not be built at all.
    val keyed = GeoBlockSpark.withLeafKey(withBadPoint(-73.98, 40.75, null))
    val text  = failureText(
      GeoBlockSpark.collectBlock(GeoBlockSpark.headerDF(keyed, 15, Seq("v")), 15, Seq("v")))
    assert(text.contains("IllegalArgumentException") && text.contains("null value: v=null"), text)
  }
}
