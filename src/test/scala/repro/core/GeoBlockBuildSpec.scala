package repro.core

import repro.{Oracle, SparkSpec, SynthData, TestData}
import repro.s2.CellId

/** Build-path correctness: the single-pass driver build, the Spark
  * groupBy build, and a DuckDB oracle over the header pipeline must all
  * agree.
  */
class GeoBlockBuildSpec extends SparkSpec {

  private lazy val raw   = TestData.raw
  private lazy val block = TestData.block17

  test("raw data is sorted by leaf key and keys are leaves") {
    assert(raw.size > 50000)
    var i = 1
    while (i < raw.size) { assert(raw.keys(i - 1) <= raw.keys(i)); i += 1 }
    assert(raw.keys.take(1000).forall(k => (k & 1L) == 1L))
  }

  test("header cells are sorted, unique, and at the block level") {
    assert(block.numCells > 0)
    var i = 1
    while (i < block.numCells) { assert(block.keys(i - 1) < block.keys(i)); i += 1 }
    assert(block.keys.forall(k => CellId(k).level == 17))
  }

  test("offsets are the prefix sums of the counts and cover all tuples") {
    var expected = 0L
    var i = 0
    while (i < block.numCells) {
      assert(block.offsets(i) == expected, s"cell $i")
      expected += block.counts(i)
      i += 1
    }
    assert(expected == raw.size.toLong)
  }

  test("every tuple's block-level parent is its covering header cell") {
    var i = 0
    while (i < block.numCells) {
      val cell = CellId(block.keys(i))
      val from = block.offsets(i).toInt
      val until = from + block.counts(i).toInt
      // spot-check first/last tuple of each CellBlock
      assert(GeoBlock.blockKeyOf(raw.keys(from), 17) == cell.id)
      assert(GeoBlock.blockKeyOf(raw.keys(until - 1), 17) == cell.id)
      i += 1
    }
  }

  test("per-cell aggregates match brute force on sampled cells") {
    val rnd = new scala.util.Random(3)
    val sample = Seq.fill(20)(rnd.nextInt(block.numCells))
    sample.foreach { i =>
      val cell = CellId(block.keys(i))
      val st   = TestData.bruteAggCells(raw, Seq(cell))
      assert(st.count == block.counts(i))
      (0 until raw.nCols).foreach { c =>
        assert(st.mins(c) == block.mins(c)(i), s"min col $c cell $i")
        assert(st.maxs(c) == block.maxs(c)(i), s"max col $c cell $i")
        assert(math.abs(st.sums(c) - block.sums(c)(i)) < 1e-6 * math.abs(st.sums(c)).max(1.0))
      }
    }
  }

  test("block-wide aggregate covers all tuples and key range brackets the data") {
    assert(block.totalTuples == raw.size.toLong)
    assert(block.keyMin <= raw.keys.head && block.keyMax >= raw.keys.last)
  }

  test("Spark groupBy build equals the single-pass driver build") {
    val points = SynthData.taxiTrips(spark, 0.002, seed = 99)
    val sraw   = GeoBlockSpark.extractAndReorganize(points, TestData.ValueCols)
    val driver = GeoBlock.buildFromSorted(sraw, 15)
    val keyed  = GeoBlockSpark.sortByKey(GeoBlockSpark.withLeafKey(points))
    val viaSpark = GeoBlockSpark.collectBlock(
      GeoBlockSpark.headerDF(keyed, 15, TestData.ValueCols), 15, TestData.ValueCols)
    assert(driver.numCells == viaSpark.numCells)
    assert(driver.keys.toSeq == viaSpark.keys.toSeq)
    assert(driver.counts.toSeq == viaSpark.counts.toSeq)
    assert(driver.offsets.toSeq == viaSpark.offsets.toSeq)
    (0 until driver.nCols).foreach { c =>
      driver.keys.indices.foreach { i =>
        assert(driver.mins(c)(i) == viaSpark.mins(c)(i))
        assert(driver.maxs(c)(i) == viaSpark.maxs(c)(i))
        assert(math.abs(driver.sums(c)(i) - viaSpark.sums(c)(i)) <
          1e-6 * math.abs(driver.sums(c)(i)).max(1.0))
      }
    }
  }

  test("headerDF agrees with DuckDB grouping oracle") {
    val points = SynthData.taxiTrips(spark, 0.001, seed = 5)
    val keyed  = GeoBlockSpark.withLeafKey(points)
    val level  = 14
    val shift  = 2 * (CellId.MaxLevel - level)
    val header = GeoBlockSpark.headerDF(keyed, level, Seq("trip_distance"))
      .select("cell", "cnt", "min_trip_distance", "max_trip_distance")
    val sql =
      s"""SELECT ((CAST(cell_key AS BIGINT) >> ${shift + 1}) << ${shift + 1})
         |         + ${1L << shift} AS cell,
         |       count(*) AS cnt,
         |       min(CAST(trip_distance AS DOUBLE)) AS min_trip_distance,
         |       max(CAST(trip_distance AS DOUBLE)) AS max_trip_distance
         |FROM taxi GROUP BY 1""".stripMargin
    Oracle.assertEquivalent(header, sql, "taxi" -> keyed)
  }

  test("empty input produces an empty block") {
    val empty = new RawColumns(Array.empty, Array.empty, Array.empty,
      Array("a"), Array(Array.empty[Double]))
    val b = GeoBlock.buildFromSorted(empty, 17)
    assert(b.numCells == 0 && b.totalTuples == 0)
    assert(TestData.countOf(b, TestData.polys.head) == 0)
  }

  test("unsorted raw keys are rejected with the row named") {
    val lons = Array(-73.99, -73.80, -73.95)
    val ks   = lons.map(CellId.leafKey(_, 40.75)).sorted
    val raw  = new RawColumns(Array(ks(0), ks(2), ks(1)), lons, Array.fill(3)(40.75),
      Array("a"), Array(Array(1.0, 2.0, 3.0)))
    val e = intercept[IllegalArgumentException](GeoBlock.buildFromSorted(raw, 17))
    assert(e.getMessage.contains("row 2"), e.getMessage)
  }

  test("coarser levels produce no more cells than finer levels") {
    val c13 = GeoBlock.buildFromSorted(raw, 13).numCells
    val c17 = block.numCells
    val c19 = GeoBlock.buildFromSorted(raw, 19).numCells
    assert(c13 <= c17 && c17 <= c19)
  }

  test("header size formula matches cell count and columns") {
    val expected = block.numCells.toLong * (24L + 24L * 3) + AggState.storedBytes(3) + 16L
    assert(block.headerSizeBytes == expected)
  }
}
