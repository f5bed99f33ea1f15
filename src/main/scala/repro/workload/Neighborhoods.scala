package repro.workload

import repro.SynthData
import repro.geo.{BBox, Polygon, Pt}
import scala.util.Random

/** Synthetic NYC "neighborhoods" (substitute for the NTA polygon
  * shapefile — see DESIGN.md): a jittered grid tiling of the NYC bbox.
  * Grid nodes are displaced deterministically, and each cell becomes the
  * quadrilateral of its four (shared) displaced corners — so the 192
  * polygons are simple, non-rectangular, and exactly partition the city,
  * which the relative-error experiment relies on.
  */
object Neighborhoods {

  val Bounds: BBox = BBox(SynthData.NycMinLon, SynthData.NycMinLat,
                          SynthData.NycMaxLon, SynthData.NycMaxLat)

  private val Nx = 16
  private val Ny = 12
  /** Maximum node displacement, as a fraction of the grid cell size. */
  private val Jitter = 0.3
  private val Seed   = 7L

  /** Nx * Ny = 192 quadrilaterals. */
  def generate(): IndexedSeq[Polygon] = {
    val rnd = new Random(Seed)
    val dx  = Bounds.width / Nx
    val dy  = Bounds.height / Ny
    // Displace interior grid nodes only, so the outer boundary stays put.
    val nodes = Array.tabulate(Nx + 1, Ny + 1) { (i, j) =>
      val jx = if (i == 0 || i == Nx) 0.0 else (rnd.nextDouble() - 0.5) * 2 * Jitter * dx
      val jy = if (j == 0 || j == Ny) 0.0 else (rnd.nextDouble() - 0.5) * 2 * Jitter * dy
      Pt(Bounds.minX + i * dx + jx, Bounds.minY + j * dy + jy)
    }
    (for {
      i <- 0 until Nx
      j <- 0 until Ny
    } yield Polygon(IndexedSeq(
      nodes(i)(j), nodes(i + 1)(j), nodes(i + 1)(j + 1), nodes(i)(j + 1)
    ))).toIndexedSeq
  }
}
