package repro.perfbench

import java.io.File
import repro.core.GeoBlock
import scala.collection.mutable.ArrayBuffer

/** One benchmark run: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
  *
  * Untraced runs (`--trace 0`) print the end-to-end metrics; traced runs
  * print the per-layer metrics. Both check every distinct query or build
  * and exit non-zero if an answer is wrong.
  */
object Main {

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean)

  val Workloads: Seq[String] = Seq("neighborhoods", "large-rects", "skewed-cells")

  /** Setups per untraced run; `setup_s` is their median. */
  val SetupReps = 2
  /** In-memory rebuilds per run, after untimed ones; `build_s` is
    * the median of the timed ones.
    */
  val BuildWarmups = 10
  val BuildReps    = 15
  /** Untimed queries before the measured seconds. */
  val SettleSeconds = 2.0

  val EndToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s", "queries_per_s" -> "1/s", "query_p50_us" -> "us",
    "query_p99_us" -> "us", "build_s" -> "s", "index_bytes" -> "B",
    "mean_rel_error" -> "ratio")

  val PerLayer: Seq[(String, String)] = Seq(
    "s2.Covering.cover_us" -> "us",
    "s2.cells_per_query" -> "count",
    "s2.key_ranges_per_query" -> "count",
    "core.GeoBlock.select_us" -> "us",
    "core.cellblocks_scanned_per_query" -> "count",
    "core.binary_searches_per_query" -> "count",
    "core.AdaptiveGeoBlock.select_us" -> "us",
    "core.v1_fallback_cellblocks_per_query" -> "count",
    "core.AggregateTrie.hits" -> "count",
    "core.AggregateTrie.partial_hits" -> "count",
    "core.AggregateTrie.misses" -> "count",
    "core.AggregateTrie.hit_ratio" -> "ratio",
    "core.AggregateTrie.probe_us" -> "us",
    "core.AggregateTrie.bytes" -> "B",
    "core.AggregateTrie.aggregates" -> "count",
    "core.StatsTrie.record_us" -> "us",
    "core.StatsTrie.entries" -> "count",
    "core.GeoBlockSpark.key_ms" -> "ms",
    "core.GeoBlockSpark.sort_ms" -> "ms",
    "core.GeoBlockSpark.collect_ms" -> "ms",
    "core.GeoBlockSpark.header_ms" -> "ms",
    "core.GeoBlock.build_ms" -> "ms",
    "core.AdaptiveGeoBlock.trie_build_ms" -> "ms",
    "core.GeoBlock.header_bytes" -> "B",
    "core.GeoBlock.cellblocks" -> "count",
    "jvm.alloc_bytes_per_query" -> "B",
    "jvm.gc_ms" -> "ms",
    "trace.queries_per_s" -> "1/s",
    "trace.untraced_queries_per_s" -> "1/s",
    "trace.overhead_frac" -> "ratio")

  @volatile private var sink = 0.0

  /** Keeps results alive so the JIT cannot drop the work producing them. */
  def consume(v: Double): Unit = sink += v

  def main(argv: Array[String]): Unit = {
    val args = parse(argv.toList) match {
      case Right(a) => a
      case Left(msg) =>
        System.err.println(s"perfbench: $msg\nusage: --workload <${Workloads.mkString("|")}> " +
          "--seed <n> --seconds <s> --trace <0|1>")
        sys.exit(2)
    }
    val rep = new Report(args.workload)
    try {
      runQueries(args, rep)
    } catch {
      case e: Exception =>
        e.printStackTrace()
        rep.error(s"run aborted: $e")
    }
    rep.print()
    System.out.flush()
    sys.exit(if (rep.correct) 0 else 1)
  }

  private def parse(argv: List[String]): Either[String, Args] = {
    val kv = argv.grouped(2).collect { case List(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    if (argv.length % 2 != 0 || kv.size * 2 != argv.length) return Left("malformed arguments")
    for {
      w <- kv.get("workload").filter(Workloads.contains).toRight("unknown or missing --workload")
      s <- kv.get("seed").flatMap(_.toLongOption).toRight("--seed must be an integer")
      t <- kv.get("seconds").flatMap(_.toDoubleOption).filter(_ > 0).toRight("--seconds must be > 0")
      tr <- kv.get("trace").collect { case "0" => false; case "1" => true }.toRight("--trace must be 0 or 1")
    } yield Args(w, s, t, tr)
  }

  /** Adds every named metric; a layer the workload does not use reads 0. */
  private def emit(rep: Report, names: Seq[(String, String)], values: Map[String, Double]): Unit =
    names.foreach { case (n, u) => rep.add(n, values.getOrElse(n, 0.0), u) }

  private def traceFile(a: Args): File =
    new File(Env.WorkDir, s"trace-${a.workload}.tsv")

  private def settingsNote(rep: Report, a: Args): Unit =
    rep.note(s"seed=${a.seed} sf=${Env.Sf} level=${Env.Level} threshold=${Env.Threshold} " +
      s"spark=local[${Env.SparkThreads}] shuffle_partitions=${Env.ShufflePartitions} " +
      s"heap=${Runtime.getRuntime.maxMemory >> 20}MiB client=closed-loop x1 seconds=${a.seconds}")

  private def latencyNote(rep: Report, what: String, r: LoopResult): Unit =
    rep.note(f"$what: ${r.n} ops in ${r.elapsedNs / 1e9}%.3f s, ${r.numWindows} windows of " +
      f"${LoopResult.WindowNs / 1e9}%.1f s, >= ${r.minWindowSamples} samples each; p99 is the " +
      f"${r.tailQ * 100}%.2f%% quantile per window; ops per window: ${r.windowCounts.mkString(" ")}")

  private def runQueries(a: Args, rep: Report): Unit = {
    settingsNote(rep, a)
    val reps    = if (a.trace) 1 else SetupReps
    val setupNs = ArrayBuffer.empty[Long]
    var s: QuerySetup     = null
    var firstBuild: QueryStream = null
    var badSetups = 0L
    for (_ <- 0 until reps) {
      if (s != null) s.release()
      s = QueryBench.setup(a.workload, a.seed)
      if (firstBuild == null) firstBuild = s.stream
      else if (!sameBuild(firstBuild, s.stream)) {
        badSetups += 1
        rep.error("a set-up build differs from the first build")
      }
      setupNs += s.setupNs
      rep.note("setup phases (s): " + s.phases.map { case (k, v) => f"$k=${v / 1e9}%.3f" }.mkString(" "))
    }
    rep.note(s"setup_s samples: ${setupNs.map(_ / 1e9).mkString(", ")}")
    val trace = if (a.trace) Some(new Trace) else None
    val split = trace.map(Build.split(s.points, s.stream.block, _))
    s.release() // queries run on the in-memory structures only
    val st        = s.stream
    val firstPass = s.warmupPasses

    val allRebuilds = (0 until BuildWarmups + BuildReps).map(_ => st.rebuild())
    val rebuilds    = allRebuilds.drop(BuildWarmups)
    rep.note("in-memory builds (ms): " + allRebuilds.map(r => f"${r.totalNs / 1e6}%.1f").mkString(" "))
    if (allRebuilds.exists(!_.same)) rep.error("an in-memory rebuild differs from the set-up build")
    val badBuilds  = badSetups + allRebuilds.count(!_.same)
    val buildCount = reps + allRebuilds.length
    def medianMs(f: Rebuild => Long): Double = Stats.median(rebuilds.map(f(_) / 1e6))

    // Untimed queries until the JIT has settled on the hot query paths.
    QueryBench.loop(st, SettleSeconds, firstPass)

    if (!a.trace) {
      val res = QueryBench.loop(st, a.seconds, firstPass)
      latencyNote(rep, "queries", res)
      val relErr = checkQueries(st, Seq(res), rep)
      countBuilds(rep, buildCount, badBuilds)
      emit(rep, EndToEnd, Map(
        "setup_s"        -> Stats.median(setupNs.map(_ / 1e9).toSeq),
        "queries_per_s"  -> res.perSecond,
        "query_p50_us"   -> res.p50Us,
        "query_p99_us"   -> res.tailUs,
        "build_s"        -> Stats.median(rebuilds.map(_.totalNs / 1e9)),
        "index_bytes"    -> st.indexBytes.toDouble,
        "mean_rel_error" -> relErr))
    } else {
      val tr     = trace.get
      val ids    = new SpanIds(tr)
      val work            = st.countPass()
      val (plain, traced) = QueryBench.alternating(st, a.seconds, firstPass, tr, ids)
      val again           = st.countPass()
      if (work.fields != again.fields)
        rep.error(s"work counts changed between passes: ${work.fields} vs ${again.fields}")
      val (probeNs, recordNs) = st.isolatedNs()
      rep.note(s"untraced passes: ${plain.n} queries; traced passes: ${traced.n} queries")
      checkQueries(st, Seq(plain, traced), rep)
      countBuilds(rep, buildCount, badBuilds)
      rep.note("work counts of one pass: " + work.fields.map { case (k, v) => s"$k=$v" }.mkString(" "))
      val self = tr.selfNsByName()
      def selfUs(n: String): Double = self.getOrElse(n, 0L) / 1e3 / traced.n
      def perQuery(v: Long): Double = v.toDouble / work.queries
      val sp    = split.get
      if (!sp.headerMatches) rep.error("Spark headerDF/collectBlock header differs from buildFromSorted")
      val trie  = st.trie
      val block = st.block
      emit(rep, PerLayer, Map(
        "s2.Covering.cover_us" -> selfUs("s2.Covering.exterior"),
        "s2.cells_per_query" -> perQuery(work.cells),
        "s2.key_ranges_per_query" -> perQuery(work.keyRanges),
        "core.GeoBlock.select_us" -> selfUs("core.GeoBlock.selectCells"),
        "core.cellblocks_scanned_per_query" -> perQuery(work.v1CellBlocks),
        "core.binary_searches_per_query" -> perQuery(work.binarySearches),
        "core.AdaptiveGeoBlock.select_us" -> selfUs("core.AdaptiveGeoBlock.selectCells"),
        "core.v1_fallback_cellblocks_per_query" -> perQuery(work.fallbackCellBlocks),
        "core.AggregateTrie.hits" -> perQuery(work.hits),
        "core.AggregateTrie.partial_hits" -> perQuery(work.partialHits),
        "core.AggregateTrie.misses" -> perQuery(work.misses),
        "core.AggregateTrie.hit_ratio" ->
          (if (work.probes == 0) 0.0 else work.hits.toDouble / work.probes),
        "core.AggregateTrie.probe_us" -> probeNs / 1e3 / work.queries,
        "core.AggregateTrie.bytes" -> trie.map(_.sizeBytes.toDouble).getOrElse(0.0),
        "core.AggregateTrie.aggregates" -> trie.map(_.numAggregates.toDouble).getOrElse(0.0),
        "core.StatsTrie.record_us" -> recordNs / 1e3 / work.queries,
        "core.StatsTrie.entries" -> st.statsEntries.toDouble,
        "core.GeoBlockSpark.key_ms" -> sp.keyMs,
        "core.GeoBlockSpark.sort_ms" -> sp.sortMs,
        "core.GeoBlockSpark.collect_ms" -> sp.collectMs,
        "core.GeoBlockSpark.header_ms" -> sp.headerMs,
        "core.GeoBlock.build_ms" -> medianMs(_.blockNs),
        "core.AdaptiveGeoBlock.trie_build_ms" -> medianMs(_.trieNs))
        ++ blockMetrics(block) ++ jvmAndOverhead(plain, traced))
      tr.write(traceFile(a))
      rep.note(s"${tr.numSpans} spans written to ${traceFile(a)}")
    }
  }

  /** Whether two set-ups built the same structures: keys, counts,
    * tuples, and the same AggregateTrie size.
    */
  private def sameBuild(a: QueryStream, b: QueryStream): Boolean = {
    def trieSize(s: QueryStream) = s.trie.map(t => (t.sizeBytes, t.numAggregates))
    sameBlock(a.block, b.block) && trieSize(a) == trieSize(b)
  }

  /** Whether two GeoBlock headers agree in keys, counts and tuples. */
  def sameBlock(a: GeoBlock, b: GeoBlock): Boolean =
    java.util.Arrays.equals(a.keys, b.keys) && java.util.Arrays.equals(a.counts, b.counts) &&
      a.totalTuples == b.totalTuples

  /** Set-up builds are operations too: each counts as attempted. */
  private def countBuilds(rep: Report, builds: Int, bad: Long): Unit = {
    rep.attempted += builds
    rep.failed += bad
  }

  private def blockMetrics(block: GeoBlock): Map[String, Double] = Map(
    "core.GeoBlock.header_bytes" -> block.headerSizeBytes.toDouble,
    "core.GeoBlock.cellblocks" -> block.numCells.toDouble)

  private def jvmAndOverhead(plain: LoopResult, traced: LoopResult): Map[String, Double] = Map(
    "jvm.alloc_bytes_per_query" -> plain.allocBytes.toDouble / plain.n,
    "jvm.gc_ms" -> plain.gcMs.toDouble,
    "trace.queries_per_s" -> traced.perBusySecond,
    "trace.untraced_queries_per_s" -> plain.perBusySecond,
    "trace.overhead_frac" -> (1.0 - traced.perBusySecond / plain.perBusySecond))

  /** Checks every distinct query once, untimed. A wrong query fails every
    * timed execution of it. Returns the mean COUNT relative error.
    */
  private def checkQueries(st: QueryStream, runs: Seq[LoopResult], rep: Report): Double = {
    var failed = runs.map(_.failedOps).sum
    var errSum = 0.0
    for (q <- 0 until st.numDistinct) {
      val (ok, err) =
        try st.check(q)
        catch { case e: Exception => rep.error(s"check of query $q threw $e"); (false, 0.0) }
      if (!ok) {
        rep.error(s"query $q: wrong answer")
        failed += runs.map(_.executed(q)).sum
      }
      errSum += err
    }
    runs.foreach(_.errors.foreach(rep.error))
    rep.attempted = runs.map(_.n.toLong).sum
    rep.failed = math.min(failed, rep.attempted)
    errSum / st.numDistinct
  }
}
