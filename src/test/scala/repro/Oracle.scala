package repro

import java.sql.DriverManager
import org.apache.spark.sql.{DataFrame, Row}
import scala.jdk.CollectionConverters._

/** DuckDB correctness oracle.
  *
  * ``assertEquivalent(sparkDf, sql, tables)`` runs ``sql`` on DuckDB
  * (via JDBC, in-process) over ``tables`` and asserts the sorted rows
  * match ``sparkDf``. This catches wrong results from a rewritten plan
  * or a custom operator — "it ran" is not "it is correct".
  *
  * Doubles match within a relative tolerance of 1e-9, the benchmark's
  * rule: summation order differs between engines. Every other value
  * matches exactly.
  *
  * Alias every output column identically on both sides (Spark names
  * ``count(*)`` as ``count(1)``, DuckDB as ``count_star()``). Project
  * to scalar columns — array/map/struct are not comparable here.
  */
object Oracle {

  val RelTol = 1e-9

  /** Equal within [[RelTol]] of the larger magnitude; NaN equals NaN. An
    * infinity equals only itself: the relative bound of an infinite
    * magnitude would admit any value.
    */
  def close(a: Double, b: Double): Boolean =
    a == b || (a.isNaN && b.isNaN) ||
      (!a.isInfinite && !b.isInfinite &&
        math.abs(a - b) <= RelTol * math.max(math.abs(a), math.abs(b)))

  private def same(a: Any, b: Any): Boolean = (a, b) match {
    case (x: Double, y: Double) => close(x, y)
    case _                      => a == b
  }

  private val rowOrder: Ordering[(String, Seq[Double])] =
    Ordering.Tuple2(Ordering.String, Ordering.Implicits.seqOrdering(Ordering.Double.TotalOrdering))

  /** Rows with cells in column-name order, doubles as `Double` and other
    * values as strings, sorted by the exact cells first so that rows
    * differing only within the tolerance still pair up.
    */
  private def canon(rows: Seq[Row], cols: Seq[String]): Seq[Seq[Any]] = {
    val idx = cols.indices.sortBy(i => cols(i).toLowerCase)
    rows
      .map(r => idx.map { i =>
        r.get(i) match {
          case null                     => null
          case d: Double                => d
          case f: Float                 => f.toDouble
          case bd: java.math.BigDecimal => bd.doubleValue
          case x                        => x.toString
        }
      })
      .sortBy(row => (row.collect { case s: String => s; case null => "∅" }.mkString("\u0000"),
                      row.collect { case d: Double => d }: Seq[Double]))(rowOrder)
  }

  def assertEquivalent(sparkDf: DataFrame, sql: String, tables: (String, DataFrame)*): Unit = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      for ((name, df) <- tables) {
        val cols = df.columns
        conn.createStatement.execute(
          s"CREATE TABLE $name (${cols.map(c => s"$c VARCHAR").mkString(", ")})"
        )
        // Collect once; this is an oracle, not a bench — keep tables small.
        val ps = conn.prepareStatement(
          s"INSERT INTO $name VALUES (${cols.map(_ => "?").mkString(",")})"
        )
        df.collect().foreach { r =>
          cols.indices.foreach(i => ps.setString(i + 1, Option(r.get(i)).map(_.toString).orNull))
          ps.addBatch()
        }
        ps.executeBatch(); ps.close()
      }
      val rs   = conn.createStatement.executeQuery(sql)
      val meta = rs.getMetaData
      val dCols = (1 to meta.getColumnCount).map(meta.getColumnLabel)
      val dRows = Iterator
        .continually(rs)
        .takeWhile(_.next())
        .map(r => Row.fromSeq((1 to dCols.size).map(r.getObject)))
        .toSeq
      val sCols = sparkDf.columns.toSeq
      require(
        dCols.map(_.toLowerCase).toSet == sCols.map(_.toLowerCase).toSet,
        s"column mismatch: spark=${sCols.sorted} duckdb=${dCols.sorted} — alias every output column"
      )
      val got = canon(sparkDf.collect().toSeq, sCols)
      val exp = canon(dRows, dCols)
      val firstDiff = got.zip(exp).indexWhere { case (g, e) => !g.zip(e).forall((same _).tupled) }
      require(got.size == exp.size && firstDiff < 0,
        s"result mismatch (${got.size} vs ${exp.size} rows):\n" +
        s"  first spark row: ${got.lift(firstDiff.max(0))}\n" +
        s"  first duck row:  ${exp.lift(firstDiff.max(0))}"
      )
    } finally conn.close()
  }
}
