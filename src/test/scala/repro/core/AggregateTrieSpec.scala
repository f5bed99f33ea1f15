package repro.core

import repro.SparkSpec
import repro.s2.CellId

class AggregateTrieSpec extends SparkSpec {

  private val root = CellId.fromPoint(-73.9, 40.75, 8)

  private def agg(count: Long): AggState = {
    val st = new AggState(2)
    st.count = count
    st
  }

  test("empty trie: root node only, probe misses") {
    val t = new AggregateTrie(root, 2)
    assert(t.numNodes == 1 && t.numAggregates == 0)
    assert(t.nodeOf(CellId.fromPoint(-73.9, 40.75, 12)) == -1)
  }

  test("insert then probe returns the cached aggregate") {
    val t = new AggregateTrie(root, 2)
    val c = CellId.fromPoint(-73.9, 40.75, 12)
    assert(t.insert(c, agg(7)))
    val node = t.nodeOf(c)
    assert(node > 0)
    assert(t.aggOrNull(node).count == 7)
  }

  test("children are allocated four at a time") {
    val t = new AggregateTrie(root, 2)
    val c = CellId.fromPoint(-73.9, 40.75, 10) // 2 levels below root
    t.insert(c, agg(1))
    // path: root -> level9 group -> level10 group = 1 + 4 + 4 nodes
    assert(t.numNodes == 9)
  }

  test("sizeBytes counts nodes and stored aggregates") {
    val t = new AggregateTrie(root, 2)
    val c = CellId.fromPoint(-73.9, 40.75, 10)
    t.insert(c, agg(1))
    assert(t.sizeBytes == 9L * 8 + AggState.storedBytes(2))
  }

  test("insertCostBytes predicts the actual growth") {
    val t  = new AggregateTrie(root, 2)
    val c1 = CellId.fromPoint(-73.9, 40.75, 10)
    val cost1 = t.insertCostBytes(c1)
    val before = t.sizeBytes
    t.insert(c1, agg(1))
    assert(t.sizeBytes - before == cost1)
    // second insert along the same path but one level deeper
    val c2 = CellId.fromPoint(-73.9, 40.75, 11)
    val cost2 = t.insertCostBytes(c2)
    val before2 = t.sizeBytes
    t.insert(c2, agg(2))
    assert(t.sizeBytes - before2 == cost2)
    // sibling of c1 costs only an aggregate (group already allocated)
    val sibling = (0 until 4).map(c1.parent.child).find(_.id != c1.id).get
    assert(t.insertCostBytes(sibling) == AggState.storedBytes(2))
  }

  test("an ancestor path node exists but holds no aggregate") {
    val t = new AggregateTrie(root, 2)
    val c = CellId.fromPoint(-73.9, 40.75, 12)
    t.insert(c, agg(3))
    val node = t.nodeOf(c.parent(10))
    assert(node > 0)
    assert(t.aggOrNull(node) == null)
  }

  test("childAggOrNull finds cached direct children") {
    val t      = new AggregateTrie(root, 2)
    val parent = CellId.fromPoint(-73.9, 40.75, 12)
    val kid0   = parent.child(0)
    val kid2   = parent.child(2)
    t.insert(kid0, agg(10))
    t.insert(kid2, agg(20))
    val node = t.nodeOf(parent)
    assert(node > 0 && t.aggOrNull(node) == null)
    assert(t.childAggOrNull(node, 0).count == 10L)
    assert(t.childAggOrNull(node, 1) == null)
    assert(t.childAggOrNull(node, 2).count == 20L)
    assert(t.childAggOrNull(node, 3) == null)
    // a node without children has no child aggregates
    assert(t.childAggOrNull(t.nodeOf(kid0), 0) == null)
  }

  test("insert outside the root is rejected") {
    val t = new AggregateTrie(root, 2)
    assert(!t.insert(CellId.fromPoint(10, 10, 12), agg(1)))
    assert(!t.insert(root, agg(1)))
    assert(t.insertCostBytes(CellId.fromPoint(10, 10, 12)) == Long.MaxValue)
  }

  test("re-inserting a cell replaces its aggregate without node growth") {
    val t = new AggregateTrie(root, 2)
    val c = CellId.fromPoint(-73.9, 40.75, 11)
    t.insert(c, agg(1))
    val nodes = t.numNodes
    t.insert(c, agg(5))
    assert(t.numNodes == nodes && t.numAggregates == 1)
    assert(t.aggOrNull(t.nodeOf(c)).count == 5)
  }


  test("the node count fails loudly before it passes 32-bit indices") {
    import CellTrie.{MaxNodes, grownCapacity, grownCount}
    assert(grownCount(1) == 5)
    assert(grownCount(MaxNodes - 4) == MaxNodes)
    for (n <- Seq(MaxNodes - 3, MaxNodes, Int.MaxValue - 3, Int.MaxValue)) {
      val e = intercept[IllegalStateException](grownCount(n))
      assert(e.getMessage.contains(n.toString))
    }
    assert(grownCapacity(64, 68) == 128)
    assert(grownCapacity(64, 200) == 200)
    assert(grownCapacity(1 << 30, (1 << 30) + 4) == MaxNodes)
    assert(grownCapacity(MaxNodes - 100, MaxNodes) == MaxNodes)
  }
}
