package perfbench

import repro.data.{DatasetSpec, Datasets}
import repro.linalg.DenseMatrix

/** The benchmark's inputs: generator rows chosen by the workload seed,
  * and [[edgeBatches]], which do not depend on it.
  */
object Inputs {
  val BatchRows = 250

  /** First generator row of the workload seed's inputs. Each seed reads its
    * own window of an analog's rows; the analog's generator (its segment
    * variants and value pool) stays the same for every seed, so seeds vary
    * the rows but not the regime.
    */
  def firstRow(seed: Long): Long = seed * 100000000L

  /** `count` consecutive 250-row batches of `spec`, starting at row `from`,
    * with their labels.
    */
  def batches(spec: DatasetSpec, from: Long, count: Int): IndexedSeq[(DenseMatrix, Array[Double])] = {
    val (x, y) = Datasets.slice(spec, from, count * BatchRows)
    (0 until count).map(b => (rowsOf(x, b * BatchRows, BatchRows), y.slice(b * BatchRows, (b + 1) * BatchRows)))
  }

  def rowsOf(x: DenseMatrix, from: Int, n: Int): DenseMatrix =
    new DenseMatrix(n, x.cols, java.util.Arrays.copyOfRange(x.data, from * x.cols, (from + n) * x.cols))

  /** A batch outside the analogs' value regime. `knownFault` marks the
    * batches that hold `-0.0` cells: sparse encoding keeps a value only if
    * it is `!= 0.0`, which `-0.0` is not, so they decode with `+0.0` there.
    */
  final case class Edge(name: String, x: DenseMatrix, knownFault: Boolean)

  def edgeBatches: Seq[Edge] = {
    def fixed(spec: DatasetSpec, from: Long): DenseMatrix = Datasets.slice(spec, from, BatchRows)._1

    val specials = fixed(Datasets.kdd99, 0)
    val values = Array(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity,
                       Double.MinPositiveValue, -2.2e-310)
    for (i <- 0 until specials.rows) specials(i, i % specials.cols) = values(i % values.length)

    def negativeZeros(x: DenseMatrix, col: Int): DenseMatrix = {
      for (i <- 0 until x.rows if x(i, col) == 0.0) x(i, col) = -0.0
      x
    }

    Seq(
      Edge("special-values", specials, knownFault = false),
      Edge("empty", DenseMatrix.zeros(0, Datasets.census.cols), knownFault = false),
      Edge("all-zero", DenseMatrix.zeros(BatchRows, Datasets.census.cols), knownFault = false),
      Edge("negative-zero-census", negativeZeros(fixed(Datasets.census, 0), 3), knownFault = true),
      Edge("negative-zero-kdd99", negativeZeros(fixed(Datasets.kdd99, BatchRows), 1), knownFault = true),
    )
  }
}
