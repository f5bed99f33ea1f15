package repro.perfbench

import org.apache.spark.sql.DataFrame
import repro.core._

/** Build-side timings split at the Spark phases, from noop-sink runs. */
final case class BuildSplit(keyMs: Double, sortMs: Double, collectMs: Double,
                            headerMs: Double, headerMatches: Boolean)

object Build {

  /** Splits the Spark build into key assignment, sort and collect by
    * running its prefixes into a noop sink, and times the second header
    * path (`headerDF` + `collectBlock`), checking it against `block`.
    */
  def split(points: DataFrame, block: GeoBlock, tr: Trace): BuildSplit = {
    val op = tr.nextOp()
    def timed(name: String)(f: => Unit): Long = {
      val t0 = System.nanoTime()
      tr.span(tr.nameId(name), op)(f)
      System.nanoTime() - t0
    }
    val keyed  = GeoBlockSpark.withLeafKey(points)
    val keyNs  = timed("core.GeoBlockSpark.withLeafKey.noop")(
      keyed.write.format("noop").mode("overwrite").save())
    val sortNs = timed("core.GeoBlockSpark.sortByKey.noop")(
      GeoBlockSpark.sortByKey(keyed).write.format("noop").mode("overwrite").save())
    val extractNs = timed("core.GeoBlockSpark.extractAndReorganize")(
      Main.consume(GeoBlockSpark.extractAndReorganize(points, Env.ValueCols).size))
    var header: GeoBlock = null
    val headerNs = timed("core.GeoBlockSpark.headerDF.collectBlock") {
      header = GeoBlockSpark.collectBlock(
        GeoBlockSpark.headerDF(GeoBlockSpark.sortByKey(keyed), Env.Level, Env.ValueCols),
        Env.Level, Env.ValueCols)
    }
    val matches = java.util.Arrays.equals(header.keys, block.keys) &&
      java.util.Arrays.equals(header.counts, block.counts) &&
      java.util.Arrays.equals(header.offsets, block.offsets)
    BuildSplit(keyNs / 1e6, (sortNs - keyNs) / 1e6, (extractNs - sortNs) / 1e6,
      headerNs / 1e6, matches)
  }
}
