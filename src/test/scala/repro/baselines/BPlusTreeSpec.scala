package repro.baselines

import repro.SparkSpec
import scala.util.Random

class BPlusTreeSpec extends SparkSpec {

  private def refLowerBound(keys: Array[Long], probe: Long): Int = {
    var i = 0
    while (i < keys.length && keys(i) < probe) i += 1
    i
  }

  test("lowerBound on an empty tree") {
    val t = new BPlusTree(Array.empty[Long])
    assert(t.lowerBound(5L) == 0)
  }

  test("lowerBound on a single-node tree") {
    val keys = Array(2L, 4L, 6L, 8L)
    val t    = new BPlusTree(keys)
    assert(t.lowerBound(1) == 0)
    assert(t.lowerBound(2) == 0)
    assert(t.lowerBound(3) == 1)
    assert(t.lowerBound(8) == 3)
    assert(t.lowerBound(9) == 4)
  }

  test("lowerBound matches linear reference on random sorted arrays") {
    val rnd = new Random(13)
    for (trial <- 1 to 20) {
      val n    = 1 + rnd.nextInt(5000)
      val keys = Array.fill(n)(rnd.nextLong() & 0xFFFFFFL).sorted
      val t    = new BPlusTree(keys)
      for (_ <- 1 to 200) {
        val probe = rnd.nextLong() & 0xFFFFFFL
        assert(t.lowerBound(probe) == refLowerBound(keys, probe), s"trial $trial probe $probe")
      }
      // also probe exact keys and boundaries
      assert(t.lowerBound(Long.MinValue) == 0)
      assert(t.lowerBound(keys.last + 1) == n)
      for (_ <- 1 to 50) {
        val k = keys(rnd.nextInt(n))
        assert(t.lowerBound(k) == refLowerBound(keys, k))
      }
    }
  }

  test("lowerBound with heavy duplicates returns the first occurrence") {
    val rnd  = new Random(17)
    val keys = Array.fill(3000)(rnd.nextInt(20).toLong).sorted
    val t    = new BPlusTree(keys)
    for (probe <- 0L to 20L)
      assert(t.lowerBound(probe) == refLowerBound(keys, probe), s"probe $probe")
  }

  test("height grows logarithmically with fanout 16") {
    assert(new BPlusTree(Array.tabulate(10)(_.toLong)).height == 1)
    assert(new BPlusTree(Array.tabulate(200)(_.toLong)).height >= 2)
    val big = new BPlusTree(Array.tabulate(100000)(_.toLong))
    assert(big.height <= 6)
  }

  test("sizeBytes accounts for separators and leaf keys") {
    val t = new BPlusTree(Array.tabulate(256)(_.toLong))
    // 256 leaves -> 16 separators -> root; 8 bytes each
    assert(t.sizeBytes == (256L + 16L) * 8L)
  }
}
