package repro.perfbench

import java.io.File
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.SynthData

/** Fixed settings of every run. They are part of the benchmark: two
  * commits are only comparable under the same values.
  */
object Env {
  /** Scale factor of the synthetic taxi data: 1.2 M points. */
  val Sf: Double = 0.1
  /** GeoBlock level (the paper's default). */
  val Level: Int = 17
  /** AggregateTrie budget as a fraction of the header size (the repo's
    * rescaled equivalent of the paper's 5%).
    */
  val Threshold: Double = 0.25
  /** Local Spark threads: at most 4, and never more than the machine has. */
  val SparkThreads: Int = math.min(4, Runtime.getRuntime.availableProcessors)
  val ShufflePartitions: Int = 2 * SparkThreads

  val ValueCols: Seq[String] = SynthData.TaxiValueCols

  /** Scratch space for Spark, inside the checkout the benchmark runs in. */
  val WorkDir: File = new File(sys.props.getOrElse("perfbench.workdir", "perfbench/out"))

  def startSpark(): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[$SparkThreads]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toString)
      .config("spark.local.dir", new File(WorkDir, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(WorkDir, "spark-warehouse").getAbsolutePath)
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  /** Generates the taxi points for `seed` and materializes them, so that
    * no later phase pays for generation. Returns the cached frame and its
    * row count.
    */
  def materializedPoints(spark: SparkSession, seed: Long): (DataFrame, Long) = {
    val df = SynthData.taxiTrips(spark, Sf, seed).persist(StorageLevel.MEMORY_ONLY)
    (df, df.count())
  }
}
