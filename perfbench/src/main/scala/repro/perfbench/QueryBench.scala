package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.geo.Polygon
import repro.s2.{CellId, Covering}
import repro.workload.{Neighborhoods, Workloads}

/** A query stream over a built GeoBlock: the queries of one workload,
  * how to run each (plain and traced), and how to check and count it.
  */
abstract class QueryStream(val block: GeoBlock, val raw: RawColumns) {
  val specs: Seq[AggSpec] = Workloads.SevenAggs
  val cols: Array[Int]    = AggSpec.neededCols(specs)

  def numDistinct: Int
  /** Distinct-query ids in the order of pass `p`. */
  def pass(p: Int): Array[Int]
  def query(q: Int): Array[Double]
  def queryTraced(q: Int, op: Int, tr: Trace, ids: SpanIds): Array[Double]
  def indexBytes: Long
  /** Checks one distinct query; returns whether it is right, and its
    * COUNT's relative error against the exact in-polygon count.
    */
  def check(q: Int): (Boolean, Double)
  /** Exact work counts of one full pass. */
  def countPass(): Work
  /** Isolated per-layer timings of one pass, for layers the traced call
    * cannot split: (trie probe ns, statistics record ns).
    */
  def isolatedNs(): (Long, Long) = (0L, 0L)
  def trie: Option[AggregateTrie] = None
  def statsEntries: Long = 0L

  /** One in-memory build from the sorted raw columns to the queryable
    * structure, timed, and whether it reproduces the structure the
    * queries run on.
    */
  def rebuild(): Rebuild = {
    val t0 = System.nanoTime()
    val b  = GeoBlock.buildFromSorted(raw, block.blockLevel)
    Rebuild(System.nanoTime() - t0, 0L, Main.sameBlock(b, block))
  }
}

final case class Rebuild(blockNs: Long, trieNs: Long, same: Boolean) {
  def totalNs: Long = blockNs + trieNs
}

/** Span names, interned once per trace. */
final class SpanIds(tr: Trace) {
  val query    = tr.nameId("query")
  val cover    = tr.nameId("s2.Covering.exterior")
  val v1Select = tr.nameId("core.GeoBlock.selectCells")
  val v2Select = tr.nameId("core.AdaptiveGeoBlock.selectCells")
}

/** Polygons answered by V1 `GeoBlock.select`, covering included, in
  * seeded shuffled passes.
  */
final class V1Polygons(block: GeoBlock, raw: RawColumns, polys: IndexedSeq[Polygon], seed: Long)
    extends QueryStream(block, raw) {

  def numDistinct: Int = polys.length
  def pass(p: Int): Array[Int] = Inputs.shuffledPass(polys.length, seed, p)
  def query(q: Int): Array[Double] = block.select(polys(q), specs)

  /** `GeoBlock.select` split at its layer boundaries. */
  def queryTraced(q: Int, op: Int, tr: Trace, ids: SpanIds): Array[Double] =
    tr.span(ids.query, op) {
      val cells = tr.span(ids.cover, op)(Covering.exterior(polys(q), block.blockLevel))
      tr.span(ids.v1Select, op)(block.selectCells(cells, cols)).extractAll(specs)
    }

  def indexBytes: Long = block.headerSizeBytes

  def check(q: Int): (Boolean, Double) = {
    val cells = Covering.exterior(polys(q), block.blockLevel)
    val got   = block.select(polys(q), specs)
    val exact = Check.exactCount(raw, cells, polys(q))
    (Check.sameAnswer(got, Check.bruteForce(raw, cells, specs)), Check.relError(got(0), exact))
  }

  def countPass(): Work = {
    val w = new Work
    pass(0).foreach(q => w.addV1(block, Covering.exterior(polys(q), block.blockLevel)))
    w
  }
}

/** The Fig 9/10 protocol on precomputed coverings, answered by V2
  * `AdaptiveGeoBlock.selectCells` with statistics recording on.
  */
final class SkewedCells(block: GeoBlock, raw: RawColumns, polys: IndexedSeq[Polygon],
                        cells: Array[IndexedSeq[CellId]], stream: Array[Int],
                        val v2: AdaptiveGeoBlock, t: AggregateTrie)
    extends QueryStream(block, raw) {

  def numDistinct: Int = polys.length
  def pass(p: Int): Array[Int] = stream
  def query(q: Int): Array[Double] = v2.selectCells(cells(q), specs)

  def queryTraced(q: Int, op: Int, tr: Trace, ids: SpanIds): Array[Double] =
    tr.span(ids.query, op)(tr.span(ids.v2Select, op)(v2.selectCells(cells(q), specs)))

  def indexBytes: Long = block.headerSizeBytes + t.sizeBytes
  override def trie: Option[AggregateTrie] = Some(t)
  override def statsEntries: Long = v2.stats.entries.length.toLong

  def check(q: Int): (Boolean, Double) = {
    val cs     = cells(q)
    val v1     = block.selectCells(cs, cols).extractAll(specs)
    val got    = v2.selectCells(cs, specs)
    val replay = new Work().replayV2(block, t, cs, specs)
    // Every cell answered from the cache must hold exactly the aggregate
    // a scan of its CellBlocks gives.
    val cachedOk = cs.forall { c =>
      val node = t.nodeOf(c)
      val agg  = if (node < 0) null else t.aggOrNull(node)
      agg == null || {
        val scan = block.aggregateOf(c)
        agg.count == scan.count && (0 until block.nCols).forall(k =>
          agg.mins(k) == scan.mins(k) && agg.maxs(k) == scan.maxs(k) &&
            Check.close(agg.sums(k), scan.sums(k)))
      }
    }
    val ok = Check.sameAnswer(v1, Check.bruteForce(raw, cs, specs)) &&
      Check.sameAnswer(got, v1) && java.util.Arrays.equals(got, replay) && cachedOk
    (ok, Check.relError(got(0), Check.exactCount(raw, cs, polys(q))))
  }

  def countPass(): Work = {
    val w = new Work
    stream.foreach(q => w.replayV2(block, t, cells(q), specs))
    w
  }

  /** Also rebuilds the AggregateTrie, from one pass of the stream's
    * statistics replayed untimed into a fresh V2 block.
    */
  override def rebuild(): Rebuild = {
    val r     = super.rebuild()
    val fresh = new AdaptiveGeoBlock(block)
    stream.foreach(q => cells(q).foreach(fresh.stats.record))
    val t0     = System.nanoTime()
    val t2     = fresh.buildAggregateTrie(Env.Threshold)
    val trieNs = System.nanoTime() - t0
    r.copy(trieNs = trieNs,
           same = r.same && t2.sizeBytes == t.sizeBytes && t2.numAggregates == t.numAggregates)
  }

  /** Trie probes and statistics records of one pass, timed in isolation
    * over `IsolatedPasses` passes after as many warm-up passes; records go
    * to a shadow StatsTrie, so the real statistics stay as they were.
    */
  override def isolatedNs(): (Long, Long) = {
    val shadow = new StatsTrie(v2.stats.rootCell)
    var sink   = 0L
    def probes(): Unit  = stream.foreach(q => cells(q).foreach(c => sink += t.nodeOf(c)))
    def records(): Unit = stream.foreach(q => cells(q).foreach(c => if (shadow.record(c)) sink += 1))
    def timed(f: () => Unit): Long = {
      (0 until SkewedCells.IsolatedPasses).foreach(_ => f())
      val t0 = System.nanoTime()
      (0 until SkewedCells.IsolatedPasses).foreach(_ => f())
      (System.nanoTime() - t0) / SkewedCells.IsolatedPasses
    }
    val probeNs  = timed(() => probes())
    val recordNs = timed(() => records())
    Main.consume(sink.toDouble)
    (probeNs, recordNs)
  }
}

object SkewedCells {
  val IsolatedPasses = 10
}

/** One set-up of a query workload: Spark, materialized points, the
  * build, the workload's inputs and warm-up. `phases` splits its time.
  */
final class QuerySetup(val spark: SparkSession, val points: DataFrame, val stream: QueryStream,
                       val setupNs: Long, val warmupPasses: Int, val phases: Seq[(String, Long)]) {
  def release(): Unit = {
    points.unpersist(blocking = true)
    spark.stop()
  }
}

object QueryBench {
  val WarmupQueries = 3000

  def setup(workload: String, seed: Long): QuerySetup = {
    val t0          = System.nanoTime()
    val spark       = Env.startSpark()
    val t1          = System.nanoTime()
    val (points, n) = Env.materializedPoints(spark, seed)
    val t2          = System.nanoTime()
    val raw         = GeoBlockSpark.extractAndReorganize(points, Env.ValueCols)
    val t3          = System.nanoTime()
    val block       = GeoBlock.buildFromSorted(raw, Env.Level)
    val t4          = System.nanoTime()
    if (raw.size != n) throw new IllegalStateException(s"collected ${raw.size} of $n points")
    val stream: QueryStream = workload match {
      case "neighborhoods" => new V1Polygons(block, raw, Neighborhoods.generate(), seed)
      case "large-rects"   => new V1Polygons(block, raw, Inputs.largeRects(raw, seed), seed)
      case "skewed-cells" =>
        // The Fig 9/10 protocol: one pass records statistics, then the
        // trie is built from them.
        val polys = Neighborhoods.generate()
        val cells = Inputs.coverings(polys)
        val order = Inputs.skewStream(cells, seed)
        val v2    = new AdaptiveGeoBlock(block)
        order.foreach(q => v2.selectCells(cells(q), Workloads.SevenAggs))
        new SkewedCells(block, raw, polys, cells, order, v2, v2.buildAggregateTrie(Env.Threshold))
    }
    val t5   = System.nanoTime()
    var done = 0
    var p    = 0
    while (done < WarmupQueries) {
      stream.pass(p).foreach { q => Main.consume(stream.query(q)(0)); done += 1 }
      p += 1
    }
    val t6 = System.nanoTime()
    new QuerySetup(spark, points, stream, t6 - t0, p,
      Seq("spark" -> (t1 - t0), "generate" -> (t2 - t1), "extract" -> (t3 - t2),
          "build" -> (t4 - t3), "inputs" -> (t5 - t4), "warmup" -> (t6 - t5)))
  }

  /** Closed loop over the stream's passes for `seconds`, one query at a
    * time.
    */
  def loop(s: QueryStream, seconds: Double, firstPass: Int): LoopResult = {
    val res      = new LoopResult(s.numDistinct)
    val jvm      = JvmCounters.start()
    val t0       = System.nanoTime()
    val deadline = t0 + (seconds * 1e9).toLong
    var p        = firstPass
    var now      = t0
    while (now < deadline) {
      now = runPass(s, p, res, None, t0, deadline)
      p += 1
    }
    res.finish(now - t0, jvm.allocatedBytes, jvm.gcMs)
    res
  }

  /** The traced run's loop: passes alternate between untraced and traced,
    * so both halves see the same machine conditions. Allocation and
    * collector time are those of the untraced passes.
    */
  def alternating(s: QueryStream, seconds: Double, firstPass: Int,
                  tr: Trace, ids: SpanIds): (LoopResult, LoopResult) = {
    val plain    = new LoopResult(s.numDistinct)
    val traced   = new LoopResult(s.numDistinct)
    var alloc    = 0L
    var gc       = 0L
    val t0       = System.nanoTime()
    val deadline = t0 + (seconds * 1e9).toLong
    var p        = firstPass
    var now      = t0
    while (now < deadline) {
      if ((p - firstPass) % 2 == 1) now = runPass(s, p, traced, Some((tr, ids)), t0, deadline)
      else {
        val jvm = JvmCounters.start()
        now = runPass(s, p, plain, None, t0, deadline)
        alloc += jvm.allocatedBytes
        gc += jvm.gcMs
      }
      p += 1
    }
    plain.finish(now - t0, alloc, gc)
    traced.finish(now - t0, 0L, 0L)
    (plain, traced)
  }

  /** Runs pass `p` until it ends or the deadline passes; returns the time
    * the last query completed.
    */
  private def runPass(s: QueryStream, p: Int, res: LoopResult, trace: Option[(Trace, SpanIds)],
                      t0: Long, deadline: Long): Long = {
    val order = s.pass(p)
    var now   = System.nanoTime()
    var k     = 0
    while (k < order.length && now < deadline) {
      val q = order(k)
      val a = System.nanoTime()
      try {
        val r = trace match {
          case None            => s.query(q)
          case Some((tr, ids)) => s.queryTraced(q, tr.nextOp(), tr, ids)
        }
        Main.consume(r(0))
      } catch { case e: Exception => res.fail(s"query $q threw $e") }
      now = System.nanoTime()
      res.record(q, now - a, now - t0)
      k += 1
    }
    now
  }
}
