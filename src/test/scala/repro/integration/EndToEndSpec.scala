package repro.integration

import org.apache.spark.sql.Row
import org.apache.spark.sql.types.{DoubleType, LongType, StructField, StructType}
import repro.{Oracle, SparkSpec, SynthData, TestData}
import repro.core._
import repro.baselines.{BTreeIndex, BinarySearchIndex}
import repro.s2.{CellId, Covering}
import repro.workload.Workloads

/** End-to-end: Spark build -> driver structures -> polygon queries, with
  * every engine agreeing and the error bound holding, plus a DuckDB check
  * of the driver's V1 answer.
  */
class EndToEndSpec extends SparkSpec {

  private lazy val raw   = TestData.raw
  private lazy val block = TestData.block17

  test("all engines agree on SELECT results across the base workload") {
    val bs    = new BinarySearchIndex(raw)
    val bt    = new BTreeIndex(raw)
    val v2    = new AdaptiveGeoBlock(block)
    val specs = Workloads.SevenAggs
    val cols  = AggSpec.neededCols(specs)
    TestData.polys.indices.foreach(i => v2.select(TestData.polys(i), specs))
    v2.buildAggregateTrie(0.05)
    TestData.polys.grouped(10).map(_.head).foreach { poly =>
      val cells = Covering.exterior(poly, 17)
      val a = block.select(poly, specs)
      val b = v2.select(poly, specs)
      val c = bs.aggregateCells(cells, cols).extractAll(specs)
      val d = bt.aggregateCells(cells, cols).extractAll(specs)
      Seq(b, c, d).foreach { other =>
        a.zip(other).foreach { case (x, y) =>
          if (x.isNaN) assert(y.isNaN)
          else assert(math.abs(x - y) < 1e-6 * math.abs(x).max(1.0))
        }
      }
    }
  }

  test("error bound: covering error is within the covering area blow-up") {
    // For every neighborhood: exact <= measured, and the extra tuples all
    // lie within cells intersecting the polygon boundary.
    TestData.polys.grouped(16).map(_.head).foreach { poly =>
      val exact    = TestData.exactPolygonCount(raw, poly)
      val measured = TestData.countOf(block, poly)
      assert(measured >= exact)
      val boundaryCells = Covering.exterior(poly, 17)
        .filterNot(c => poly.relateBox(c.bounds) == repro.geo.BoxRelation.ContainsBox)
      val boundaryTuples = boundaryCells.map(TestData.countOf(block, _)).sum
      assert(measured - exact <= boundaryTuples)
    }
  }

  test("full pipeline matches DuckDB: polygon covering aggregate at SF=0.002") {
    import spark.implicits._
    val points = SynthData.taxiTrips(spark, 0.002, seed = 77)
    val poly   = TestData.polys(55) // 316 points under its covering
    val cells  = Covering.exterior(poly, 15)
    // The driver's V1 answer over the product build path.
    val b15 = GeoBlock.buildFromSorted(
      GeoBlockSpark.extractAndReorganize(points, TestData.ValueCols), 15)
    val agg = b15.selectCells(cells, AggState.allCols(3))
    // An empty aggregate is +inf here and NULL in SQL; compare real data.
    assert(agg.count > 0, "covering holds no points")
    val names  = TestData.ValueCols.flatMap(c => Seq(s"min_$c", s"max_$c", s"sum_$c"))
    val values = (0 until 3).flatMap(c => Seq(agg.mins(c), agg.maxs(c), agg.sums(c)))
    val driver = spark.createDataFrame(
      java.util.Arrays.asList(Row.fromSeq(agg.count +: values)),
      StructType(StructField("cnt", LongType) +: names.map(StructField(_, DoubleType))))
    val cov = cells.map(c => (c.rangeMin, c.rangeMax)).toDF("lo", "hi")
    val colAggs = TestData.ValueCols.map { c =>
      s"min(CAST(t.$c AS DOUBLE)) AS min_$c, max(CAST(t.$c AS DOUBLE)) AS max_$c, " +
        s"sum(CAST(t.$c AS DOUBLE)) AS sum_$c"
    }
    val sql =
      s"""SELECT count(*) AS cnt, ${colAggs.mkString(", ")}
         |FROM taxi t, cov c
         |WHERE CAST(t.cell_key AS BIGINT) BETWEEN CAST(c.lo AS BIGINT)
         |                                     AND CAST(c.hi AS BIGINT)""".stripMargin
    Oracle.assertEquivalent(driver, sql, "taxi" -> GeoBlockSpark.withLeafKey(points), "cov" -> cov)
    // A COUNT-only query agrees with the count DuckDB just checked.
    assert(TestData.countOf(b15, poly) == agg.count)
  }

  test("rebuilding a block at a different level from the same raw data is consistent") {
    val b14 = TestData.block14
    // total tuples conserved across levels
    assert(b14.totalTuples == block.totalTuples)
    // coarse counts are the sums of fine counts
    val cell14 = CellId(b14.keys(b14.numCells / 2))
    val fineSum = block.keys.indices
      .filter(i => cell14.contains(CellId(block.keys(i))))
      .map(block.counts(_)).sum
    assert(TestData.countOf(b14, cell14) == fineSum)
  }

  test("skewed workload makes the AggregateTrie cache the hot cells") {
    val v2    = new AdaptiveGeoBlock(block)
    val specs = Workloads.SevenAggs
    val hot   = Workloads.skewedIndices(TestData.polys.length)
    // base once + hot 8x
    TestData.polys.foreach(p => v2.select(p, specs))
    (1 to 8).foreach(_ => hot.foreach(i => v2.select(TestData.polys(i), specs)))
    val trie = v2.buildAggregateTrie(0.05)
    assert(trie.numAggregates > 0)
    // the cached cells should overwhelmingly come from hot polygons' coverings
    val hotCells = hot.flatMap(i => Covering.exterior(TestData.polys(i), 17)).map(_.id).toSet
    val cached   = v2.stats.entries.map(_.cell).filter { c =>
      val node = trie.nodeOf(c)
      node >= 0 && trie.aggOrNull(node) != null
    }.map(_.id)
    assert(cached.length == trie.numAggregates)
    val inHot    = cached.count(hotCells.contains)
    assert(inHot >= cached.length * 0.8, s"only $inHot/${cached.length} cached cells are hot")
  }
}
