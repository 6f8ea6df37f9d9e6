package perfbench

import repro.core.DecodeTree
import repro.linalg.DenseMatrix

/** Correctness checks, written apart from the code they check.
  *
  * Each returns `None` when the result is right and `Some(reason)` when it
  * is not, so the benchmark's tests can feed them wrong results.
  */
object Checks {

  /** Bit-for-bit equality: every cell's raw IEEE-754 bits must match. */
  def sameBits(what: String, expected: Array[Double], actual: Array[Double]): Option[String] =
    if (expected.length != actual.length)
      Some(s"$what: ${actual.length} cells, expected ${expected.length}")
    else {
      var i = 0
      while (i < expected.length &&
             java.lang.Double.doubleToRawLongBits(expected(i)) ==
             java.lang.Double.doubleToRawLongBits(actual(i))) i += 1
      if (i == expected.length) None
      else Some(s"$what: cell $i decoded as ${actual(i)}, expected ${expected(i)}")
    }

  /** True when `actual` differs from `expected` only where a `-0.0` came
    * back as `+0.0`, and does so at least once: the sign-of-zero fault of
    * sparse encoding, and nothing else.
    */
  def onlyNegativeZerosLost(expected: Array[Double], actual: Array[Double]): Boolean =
    expected.length == actual.length && {
      var lost = 0
      var other = 0
      var i = 0
      while (i < expected.length) {
        val e = java.lang.Double.doubleToRawLongBits(expected(i))
        val a = java.lang.Double.doubleToRawLongBits(actual(i))
        if (e != a) {
          if (e == NegZeroBits && a == 0L) lost += 1 else other += 1
        }
        i += 1
      }
      lost > 0 && other == 0
    }

  private val NegZeroBits = java.lang.Double.doubleToRawLongBits(-0.0)

  /** Cells a lossless encoding must store: every cell whose bits are not
    * those of `+0.0` (so `-0.0` counts).
    */
  def storedCells(data: Array[Double]): Long = {
    var n = 0L
    var i = 0
    while (i < data.length) { if (java.lang.Double.doubleToRawLongBits(data(i)) != 0L) n += 1; i += 1 }
    n
  }

  def negativeZeroCells(data: Array[Double]): Long =
    data.count(v => java.lang.Double.doubleToRawLongBits(v) == NegZeroBits).toLong

  /** Pairs the program's encoding holds: the summed length of the
    * sequences that `D`'s codes name in `C'` (a node's depth is its
    * parent's plus one; Algorithm 2 numbers parents before children).
    */
  def storedPairs(tree: DecodeTree, tokens: Array[Int]): Long = {
    val depth = new Array[Int](tree.size)
    var i = 1
    while (i < tree.size) { depth(i) = depth(tree.parent(i)) + 1; i += 1 }
    tokens.foldLeft(0L)((s, t) => s + depth(t))
  }

  /** Parameters agree within `tol` relative to `1 + |expected|`. */
  def closeParams(what: String, expected: Array[Double], actual: Array[Double], tol: Double): Option[String] =
    if (expected.length != actual.length)
      Some(s"$what: ${actual.length} parameters, expected ${expected.length}")
    else expected.indices.find(i => !(math.abs(actual(i) - expected(i)) <= tol * (1 + math.abs(expected(i)))))
      .map(i => s"$what: parameter $i is ${actual(i)}, expected ${expected(i)} (tolerance $tol)")

  /** A kernel result agrees with a plain-loop reference: each element
    * within `rel` of the sum of its terms' magnitudes, which bounds any
    * difference that summation order alone can make.
    */
  def kernelMatches(what: String, expected: Array[Double], absTerms: Array[Double],
                    actual: Array[Double], rel: Double = 1e-9): Option[String] =
    if (expected.length != actual.length)
      Some(s"$what: ${actual.length} elements, expected ${expected.length}")
    else expected.indices.find(i => !(math.abs(actual(i) - expected(i)) <= rel * absTerms(i)))
      .map(i => s"$what: element $i is ${actual(i)}, expected ${expected(i)}")

  /** `A·M` by a plain loop over `a`'s rows: (result, sum of |terms|). */
  def rowsTimes(a: DenseMatrix, m: DenseMatrix): (Array[Double], Array[Double]) = {
    val p = m.cols
    val out = new Array[Double](a.rows * p)
    val abs = new Array[Double](a.rows * p)
    var i = 0
    while (i < a.rows) {
      var k = 0
      while (k < a.cols) {
        val v = a(i, k)
        if (v != 0.0) {
          var c = 0
          while (c < p) {
            val t = v * m.data(k * p + c)
            out(i * p + c) += t; abs(i * p + c) += math.abs(t)
            c += 1
          }
        }
        k += 1
      }
      i += 1
    }
    (out, abs)
  }

  /** `M·A` by a plain loop over `a`'s rows: (result, sum of |terms|). */
  def timesRows(m: DenseMatrix, a: DenseMatrix): (Array[Double], Array[Double]) = {
    val p = m.rows
    val out = new Array[Double](p * a.cols)
    val abs = new Array[Double](p * a.cols)
    var i = 0
    while (i < a.rows) {
      var k = 0
      while (k < a.cols) {
        val v = a(i, k)
        if (v != 0.0) {
          var r = 0
          while (r < p) {
            val t = m.data(r * m.cols + i) * v
            out(r * a.cols + k) += t; abs(r * a.cols + k) += math.abs(t)
            r += 1
          }
        }
        k += 1
      }
      i += 1
    }
    (out, abs)
  }
}

/** The linear models' training, done with plain loops over the
  * generator's rows: each partition runs sequential MGD over its batches in
  * order from the broadcast parameters, then the partition models are
  * averaged weighted by their row counts.
  */
object LinearReference {

  /** One labelled batch of generator rows. */
  type Batch = (DenseMatrix, Array[Double])

  def sigmoid(z: Double): Double =
    if (z >= 0) 1.0 / (1.0 + math.exp(-z)) else { val e = math.exp(z); e / (1.0 + e) }

  /** One MGD step in place. `svm` selects hinge loss, else logistic loss. */
  def step(w: Array[Double], batch: Batch, lr: Double, svm: Boolean): Unit = {
    val (x, y) = batch
    val n = x.rows; val d = x.cols; val a = x.data
    val g = new Array[Double](d)
    var i = 0
    while (i < n) {
      var z = 0.0
      var j = 0
      while (j < d) { z += a(i * d + j) * w(j); j += 1 }
      val u =
        if (svm) { val ys = 2 * y(i) - 1; if (ys * z < 1) -ys / n else 0.0 }
        else (sigmoid(z) - y(i)) / n
      j = 0
      if (u != 0.0) while (j < d) { g(j) += u * a(i * d + j); j += 1 }
      i += 1
    }
    var j = 0
    while (j < d) { w(j) -= lr * g(j); j += 1 }
  }

  /** One epoch over `partitions` (each a sequence of batches in order). */
  def epoch(w: Array[Double], partitions: Seq[Iterator[Batch]], lr: Double, svm: Boolean): Array[Double] =
    epochs(Seq(w), partitions, lr, Seq(svm)).head

  /** One epoch of several models at once, reading each batch once. */
  def epochs(ws: Seq[Array[Double]], partitions: Seq[Iterator[Batch]], lr: Double,
             svm: Seq[Boolean]): Seq[Array[Double]] = {
    val partials = partitions.map { it =>
      val local = ws.map(_.clone())
      var rows = 0L
      it.foreach { b =>
        local.indices.foreach(m => step(local(m), b, lr, svm(m)))
        rows += b._1.rows
      }
      (local, rows)
    }.filter(_._2 > 0)
    val total = partials.map(_._2).sum.toDouble
    ws.indices.map { m =>
      val avg = new Array[Double](ws(m).length)
      partials.foreach { case (local, rows) =>
        val f = rows / total
        for (j <- avg.indices) avg(j) += f * local(m)(j)
      }
      avg
    }
  }
}
