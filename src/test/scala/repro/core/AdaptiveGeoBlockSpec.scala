package repro.core

import repro.{SparkSpec, TestData}
import repro.workload.Workloads

/** The adapted (V2) query algorithm must return exactly the same results
  * as the basic (V1) algorithm for any workload and any threshold — the
  * AggregateTrie is a cache, not an approximation.
  */
class AdaptiveGeoBlockSpec extends SparkSpec {

  private lazy val block = TestData.block17
  private val specs      = Workloads.SevenAggs

  private def assertSameResults(v2: AdaptiveGeoBlock, polyIdxs: Seq[Int]): Unit =
    polyIdxs.foreach { i =>
      val poly = TestData.polys(i)
      val a    = block.select(poly, specs)
      val b    = v2.select(poly, specs)
      a.zip(b).zipWithIndex.foreach { case ((x, y), k) =>
        if (x.isNaN) assert(y.isNaN)
        else assert(x == y || math.abs(x - y) < 1e-6 * math.abs(x).max(1.0),
          s"poly $i spec $k: v1=$x v2=$y")
      }
    }

  test("without an AggregateTrie V2 equals V1 everywhere") {
    val v2 = new AdaptiveGeoBlock(block)
    assertSameResults(v2, TestData.polys.indices.take(40))
  }

  test("queries record their covering cells in the StatsTrie") {
    val v2 = new AdaptiveGeoBlock(block)
    assert(v2.stats.entries.map(_.hits).sum == 0)
    v2.select(TestData.polys(10), specs)
    assert(v2.stats.entries.map(_.hits).sum > 0)
  }

  test("with a small AggregateTrie V2 still equals V1 everywhere") {
    val v2 = new AdaptiveGeoBlock(block)
    TestData.polys.indices.take(60).foreach(i => v2.select(TestData.polys(i), specs))
    v2.buildAggregateTrie(0.02)
    assertSameResults(v2, TestData.polys.indices.take(60))
  }

  test("with a large AggregateTrie V2 still equals V1 everywhere") {
    val v2 = new AdaptiveGeoBlock(block)
    TestData.polys.indices.foreach(i => v2.select(TestData.polys(i), specs))
    val trie = v2.buildAggregateTrie(1.0)
    assert(trie.numAggregates > 0)
    assertSameResults(v2, TestData.polys.indices)
  }

  test("V2 equals V1 on polygons never seen during stat collection") {
    val v2 = new AdaptiveGeoBlock(block)
    TestData.polys.indices.take(50).foreach(i => v2.select(TestData.polys(i), specs))
    v2.buildAggregateTrie(0.05)
    assertSameResults(v2, 120 until 160)
  }

  test("threshold 0 yields an empty trie") {
    val v2 = new AdaptiveGeoBlock(block)
    TestData.polys.indices.take(30).foreach(i => v2.select(TestData.polys(i), specs))
    val trie = v2.buildAggregateTrie(0.0)
    assert(trie.numAggregates == 0)
  }

  test("bigger thresholds cache at least as many cells") {
    val v2 = new AdaptiveGeoBlock(block)
    TestData.polys.indices.foreach(i => v2.select(TestData.polys(i), specs))
    val sizes = Seq(0.01, 0.05, 0.2, 1.0).map(v2.buildAggregateTrie(_).numAggregates)
    assert(sizes == sizes.sorted, s"not monotone: $sizes")
    assert(sizes.last > sizes.head)
  }

  test("trie size respects the budget") {
    val v2 = new AdaptiveGeoBlock(block)
    TestData.polys.indices.foreach(i => v2.select(TestData.polys(i), specs))
    for (th <- Seq(0.02, 0.1, 0.5)) {
      val trie = v2.buildAggregateTrie(th)
      assert(trie.sizeBytes <= (block.headerSizeBytes * th).toLong,
        s"threshold $th: ${trie.sizeBytes} > budget")
    }
  }

  test("cached cells answer without touching headers (spot check via aggregate equality)") {
    val v2   = new AdaptiveGeoBlock(block)
    val poly = TestData.polys(30)
    v2.select(poly, specs)
    val trie = v2.buildAggregateTrie(1.0)
    // every covering cell of the polygon recorded+cached must carry the
    // exact aggregate the block computes
    repro.s2.Covering.exterior(poly, 17).foreach { cell =>
      val node = trie.nodeOf(cell)
      val a    = if (node < 0) null else trie.aggOrNull(node)
      if (a != null) {
        val ref = block.aggregateOf(cell)
        assert(a.count == ref.count)
        (0 until 3).foreach { c =>
          if (ref.count > 0) {
            assert(a.mins(c) == ref.mins(c))
            assert(a.maxs(c) == ref.maxs(c))
          }
        }
      }
    }
  }

}
