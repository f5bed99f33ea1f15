package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic NYC taxi data at a configurable scale factor.
  *
  * SF=1.0 is the paper's 12 M rides. Tests use SF<=0.01; benchmarks use
  * SF~=0.1. The generator is deterministic in (sf, seed) so the DuckDB
  * oracle sees identical input.
  */
object SynthData {
  private def n(base: Long, sf: Double): Long = math.max(1L, (base * sf).toLong)

  // NYC bounding box used by the synthetic taxi data and the workloads.
  val NycMinLon = -74.05
  val NycMaxLon = -73.70
  val NycMinLat = 40.55
  val NycMaxLat = 40.95

  private val NTaxiPerSf = 12_000_000L // paper: 12M yellow-cab rides

  /** Synthetic NYC taxi drop-offs (substitute for the TLC Jan–Mar 2015
    * dataset — see DESIGN.md). A Gaussian mixture reproduces the spatial
    * skew the paper's workloads rely on: a tilted dense Manhattan strip,
    * a Brooklyn cluster, two tight airport clusters (JFK, LGA) and a
    * uniform background. Value columns are the paper's three aggregation
    * columns: drop-off time (epoch seconds, Jan–Mar 2015), passenger
    * count, and trip distance. Deterministic in (sf, seed).
    */
  def taxiTrips(spark: SparkSession, sf: Double = 0.01, seed: Long = 42): DataFrame = {
    val u = rand(seed) // mixture selector
    def gauss(s: Long, mu: Double, sigma: Double) = randn(seed + s) * sigma + mu
    // Manhattan: a strip tilted NE (lon grows with lat along the axis).
    val t      = (rand(seed + 1) - 0.5) * 2 // position along the strip in [-1, 1]
    val manLon = lit(-73.99) + t * 0.020 + randn(seed + 2) * 0.006
    val manLat = lit(40.735) + t * 0.065 + randn(seed + 3) * 0.006
    val lonRaw = when(u < 0.45, manLon)
      .when(u < 0.70, gauss(4, -73.950, 0.030))  // Brooklyn
      .when(u < 0.78, gauss(5, -73.780, 0.006))  // JFK
      .when(u < 0.85, gauss(6, -73.870, 0.005))  // LGA
      .otherwise(rand(seed + 7) * (NycMaxLon - NycMinLon) + NycMinLon)
    val latRaw = when(u < 0.45, manLat)
      .when(u < 0.70, gauss(8, 40.650, 0.025))
      .when(u < 0.78, gauss(9, 40.645, 0.006))
      .when(u < 0.85, gauss(10, 40.770, 0.005))
      .otherwise(rand(seed + 11) * (NycMaxLat - NycMinLat) + NycMinLat)
    spark.range(n(NTaxiPerSf, sf)).select(
      least(lit(NycMaxLon), greatest(lit(NycMinLon), lonRaw))          as "lon",
      least(lit(NycMaxLat), greatest(lit(NycMinLat), latRaw))          as "lat",
      (lit(1420070400L) + (rand(seed + 12) * 7776000).cast(LongType))
        .cast(DoubleType)                                              as "dropoff_ts",
      (pow(rand(seed + 13), 2.0) * 6 + 1).cast(IntegerType)
        .cast(DoubleType)                                              as "passenger_count",
      round(pow(rand(seed + 14), 2.0) * 29 + lit(0.3), 2)              as "trip_distance",
    )
  }

  /** The three aggregation columns of the taxi schema. */
  val TaxiValueCols: Seq[String] = Seq("dropoff_ts", "passenger_count", "trip_distance")
}
