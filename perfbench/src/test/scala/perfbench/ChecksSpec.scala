package perfbench

import org.scalatest.funsuite.AnyFunSuite

import repro.core.{DecodeTree, TocEncoder}
import repro.data.Datasets
import repro.linalg.DenseMatrix
import repro.mgd.{LogisticRegression, MiniBatch, NeuralNet, Svm}

/** Every correctness check the benchmark makes must reject a wrong result. */
class ChecksSpec extends AnyFunSuite {

  private val (x, y) = Inputs.batches(Datasets.census, Inputs.firstRow(7), 1).head
  private val toc = TocEncoder.encode(x)

  private def flipBit(a: Array[Double], i: Int, bit: Int): Array[Double] = {
    val b = a.clone()
    b(i) = java.lang.Double.longBitsToDouble(java.lang.Double.doubleToRawLongBits(b(i)) ^ (1L << bit))
    b
  }

  test("decode check accepts TOC's decode and rejects one flipped bit") {
    val decoded = TocEncoder.fromBytes(toc.toBytes).decode.data
    assert(Checks.sameBits("census", x.data, decoded).isEmpty)
    val i = x.data.indexWhere(_ != 0.0)
    for (bit <- Seq(0, 31, 52, 63))
      assert(Checks.sameBits("census", x.data, flipBit(decoded, i, bit)).isDefined, s"bit $bit")
    assert(Checks.sameBits("census", x.data, flipBit(decoded, x.data.indexOf(0.0), 63)).isDefined, "+0.0 -> -0.0")
  }

  test("decode check compares raw bits, so NaN payloads and zero signs count") {
    val nan = java.lang.Double.longBitsToDouble(0x7ff8000000000001L)
    assert(Checks.sameBits("nan", Array(Double.NaN), Array(Double.NaN)).isEmpty)
    assert(Checks.sameBits("nan", Array(Double.NaN), Array(nan)).isDefined)
    assert(Checks.sameBits("zero", Array(-0.0), Array(0.0)).isDefined)
    assert(Checks.sameBits("short", Array(1.0, 2.0), Array(1.0)).isDefined)
  }

  test("the known fault is recognised only when -0.0 -> +0.0 is the sole difference") {
    val in = Array(1.0, -0.0, 0.0, -0.0)
    assert(Checks.onlyNegativeZerosLost(in, Array(1.0, 0.0, 0.0, 0.0)))
    assert(!Checks.onlyNegativeZerosLost(in, in.clone()), "no difference is not the fault")
    assert(!Checks.onlyNegativeZerosLost(in, Array(1.5, 0.0, 0.0, 0.0)), "another cell differs too")
    assert(!Checks.onlyNegativeZerosLost(in, Array(1.0, 0.0, -0.0, 0.0)), "+0.0 -> -0.0 is not the fault")
    assert(Checks.storedCells(in) == 3 && Checks.negativeZeroCells(in) == 2)
  }

  test("nnz check: pairs held by the encoding equal the stored cells, and a lost code is seen") {
    val p = toc.physical
    val tree = DecodeTree.buildFromPhysical(p)
    assert(Checks.storedPairs(tree, p.tokens) == Checks.storedCells(x.data))
    assert(Checks.storedPairs(tree, p.tokens.drop(1)) != Checks.storedCells(x.data))
  }

  test("kernel check accepts TOC's A·M and M·A and rejects one perturbed element") {
    val w = NeuralNet.glorot(x.cols, 20, 3)
    val (am, amAbs) = Checks.rowsTimes(x, w)
    val got = toc.timesMatrix(w).data
    assert(Checks.kernelMatches("A·M", am, amAbs, got).isEmpty)
    val bad = got.clone(); bad(17) += 1e-6 * (1 + math.abs(bad(17)))
    assert(Checks.kernelMatches("A·M", am, amAbs, bad).isDefined)

    val d = DenseMatrix.rand(20, x.rows, 5)
    val (ma, maAbs) = Checks.timesRows(d, x)
    val left = toc.leftTimes(d).data
    assert(Checks.kernelMatches("M·A", ma, maAbs, left).isEmpty)
    assert(Checks.kernelMatches("M·A", ma, maAbs, flipBit(left, ma.indexWhere(_ != 0.0), 40)).isDefined)
  }

  test("the reference loops behind CheckedMatrix and PlainMatrix agree with DenseMatrix's kernels") {
    val w = NeuralNet.glorot(x.cols, 7, 9)
    val (am, amAbs) = Checks.rowsTimes(x, w)
    assert(Checks.kernelMatches("plain A·M", am, amAbs, x.timesMatrix(w).data).isEmpty)
    val d = DenseMatrix.rand(7, x.rows, 11)
    val (ma, maAbs) = Checks.timesRows(d, x)
    assert(Checks.kernelMatches("plain M·A", ma, maAbs, x.leftTimes(d).data).isEmpty)
  }

  private val batches = Inputs.batches(Datasets.imagenet, Inputs.firstRow(3), 3)

  test("linear reference matches the program's LR and SVM on one partition") {
    for (svm <- Seq(false, true)) {
      val model = if (svm) new Svm(batches.head._1.cols) else new LogisticRegression(batches.head._1.cols)
      val ref = LinearReference.epoch(model.params, Seq(batches.iterator), 0.05, svm)
      batches.foreach { case (bx, by) => model.step(MiniBatch(TocEncoder.encode(bx), by), 0.05) }
      assert(Checks.closeParams(s"svm=$svm", ref, model.params, SparkLinear.ParamTolerance).isEmpty)
    }
  }

  test("parameter check rejects one perturbed trained weight") {
    val w = new LogisticRegression(batches.head._1.cols).params
    val trained = LinearReference.epoch(w, Seq(batches.iterator), 0.05, svm = false)
    val perturbed = trained.clone(); perturbed(123) += 1e-6
    assert(Checks.closeParams("LR", trained, trained.clone(), SparkLinear.ParamTolerance).isEmpty)
    assert(Checks.closeParams("LR", trained, perturbed, SparkLinear.ParamTolerance).isDefined)

    val nn = NeuralNet.paper(x.cols, 2).params
    val nnBad = nn.clone(); nnBad(nn.length - 1) += 1e-6
    assert(Checks.closeParams("NN", nn, nnBad, LocalNn.ParamTolerance).isDefined)
  }

  test("parameter check rejects an epoch with one batch dropped") {
    val w0 = new Svm(batches.head._1.cols).params
    val parts = Seq(batches.take(2), batches.drop(2))
    val full = LinearReference.epoch(w0, parts.map(_.iterator), 0.05, svm = true)
    val dropped = LinearReference.epoch(w0, Seq(parts(0).take(1).iterator, parts(1).iterator), 0.05, svm = true)
    assert(Checks.closeParams("SVM", full, dropped, SparkLinear.ParamTolerance).isDefined)
  }

  test("stats: interpolated quantiles") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(1.0, 2.0, 3.0, 4.0)) == 2.5)
    assert(math.abs(Stats.quantile((1 to 11).map(_.toDouble), 0.9) - 10.0) < 1e-12)
  }
}
