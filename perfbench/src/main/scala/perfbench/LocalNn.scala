package perfbench

import scala.collection.mutable

import repro.core.{DecodeTree, TocMatrix, TocPhysical}
import repro.data.{DatasetSpec, Datasets}
import repro.linalg.{CompressedMatrix, DenseMatrix}
import repro.mgd.{Mgd, MiniBatch, Model, NeuralNet}

/** `local-nn`: the paper's 200/50 NN trained by local `Mgd` over in-memory
  * TOC batches of two analogs. On imagenet-like, |C'|·200 is over
  * `TocMatrix.HTableBudgetDoubles`, so `A·M`/`M·A` walk chains; on
  * census-like it is under, so Algorithms 7/8 run. `C'` stays memoized in
  * each batch, so nothing is parsed while training.
  *
  * A round is one epoch of each analog's model. Each of `cfg.threads`
  * replicas trains its own models; timings are per replica, from the run's
  * fast rounds (the 10th percentile) or passes (the 90th percentile of rates).
  */
object LocalNn {
  /** Batches per analog: the chain kernels (imagenet-like) do most of the
    * work, the DP kernels (census-like) the rest.
    */
  val Analogs: Seq[(DatasetSpec, Int)] = Seq(Datasets.imagenet -> 12, Datasets.census -> 4)
  val LearningRate = 0.05
  val Width = 200
  /** Untimed rounds after the checked one, so that the timed ones run compiled code. */
  val WarmUpRounds = 3
  /** Tolerance of the TOC-trained against the plain-row-trained parameters. */
  val ParamTolerance = 1e-9

  /** One thread's models, batches and timings. */
  private final class Replica(val id: Int, parts: Seq[Part], tocBatches: Seq[IndexedSeq[MiniBatch]], traced: Boolean) {
    private val channel = s"local-nn.$id"
    val spans: Spans = if (traced) new Spans else null
    val models: Seq[TimedModel] = parts.map(p =>
      new TimedModel(NeuralNet.paper(p.spec.cols, p.spec.numClasses), channel, spans, "mgd.nn_step", "mgd.nn_dense"))
    private val batches =
      if (spans == null) tocBatches
      else parts.zip(tocBatches).map { case (p, bs) => bs.map(b => MiniBatch(new TimedMatrix(b.x, spans, p.spec.name), b.y)) }
    val roundS = mutable.ArrayBuffer.empty[Double]
    var steps = 0L
    var allocated = 0L

    /** Timed rounds, at least one, until `until` (a `System.nanoTime`). */
    def train(until: Long): Unit = {
      val alloc0 = Jvm.threadAllocatedBytes
      while (roundS.isEmpty || System.nanoTime() < until) {
        val t0 = System.nanoTime()
        models.zip(batches).foreach { case (m, bs) => Mgd.train(bs, m, LearningRate, 1) }
        roundS += (System.nanoTime() - t0) / 1e9
        steps += StepLog.drain(channel).length
      }
      allocated = Jvm.threadAllocatedBytes - alloc0
    }
  }

  /** One analog's inputs: generator rows, labels and their TOC batches. */
  private final case class Part(spec: DatasetSpec, rows: IndexedSeq[(DenseMatrix, Array[Double])],
                                toc: IndexedSeq[TocMatrix])

  def run(cfg: RunConfig, out: Outcome, spans: Spans): Seq[Metric] = {
    val (setups, setupTimes, encodeTimes) = (1 to 3).map { _ =>
      val t0 = System.nanoTime()
      val rows = Analogs.map { case (spec, n) => Inputs.batches(spec, Inputs.firstRow(cfg.seed), n) }
      val t1 = System.nanoTime()
      val parts = Analogs.zip(rows).map { case ((spec, _), rs) =>
        Part(spec, rs, rs.map(b => new TocMatrix(Layers.tracedEncode(b._1, spans)._1)))
      }
      val t2 = System.nanoTime()
      (parts, (t2 - t0) / 1e9, (t2 - t1) / 1e9)
    }.unzip3
    val parts = setups.last
    val setupS = cfg.startupS + Stats.median(setupTimes)
    val totalRows = parts.map(_.rows.map(_._1.rows).sum).sum

    Progress.phase("set up")
    val tocBatches = parts.map(p => p.toc.zip(p.rows).map { case (t, (_, y)) => MiniBatch(t, y) })

    // One replica per thread, each training its own models on the shared
    // batches. Round 0 checks every A·W1 and Aᵀ·Δ against plain loops over
    // the generator's rows; the warm-up rounds after it are untimed.
    val replicas = Parallel.run(cfg.threads) { r =>
      val rep = new Replica(r, parts, tocBatches, spans != null)
      parts.zip(rep.models).zip(tocBatches).foreach { case ((p, m), bs) =>
        val checked = bs.zip(p.rows).map { case (b, (x, _)) => MiniBatch(new CheckedMatrix(b.x, x, out, p.spec.name), b.y) }
        Mgd.train(checked, m.inner, LearningRate, 1)
      }
      for (_ <- 1 to WarmUpRounds) rep.models.zip(tocBatches).foreach { case (m, bs) => Mgd.train(bs, m.inner, LearningRate, 1) }
      rep
    }
    out.attempted += cfg.threads.toLong * (1 + WarmUpRounds) * tocBatches.map(_.size).sum

    Progress.phase("warmed up (kernels checked)")
    val gc0 = Jvm.gcMillis
    val until = System.nanoTime() + (cfg.seconds * 1e9).toLong
    Parallel.run(cfg.threads)(r => replicas(r).train(until))
    Progress.phase("timed rounds done")
    val rounds = replicas.map(_.roundS.size).sum
    val roundS = replicas.flatMap(_.roundS)
    out.attempted += replicas.map(_.steps).sum
    out.samples ++= Seq("round_s" -> roundS)
    val gcMs = (Jvm.gcMillis - gc0).toDouble / rounds
    val allocMb = replicas.map(_.allocated).sum / (1024.0 * 1024.0) / rounds
    val retained = Jvm.retainedHeapMb

    val perLayer = if (spans == null) Nil else {
      replicas.foreach(r => spans.merge(r.spans))
      var dp, chain = 0
      parts.foreach { p =>
        p.toc.foreach { t =>
          val tree = DecodeTree.buildFromPhysical(t.physical)
          Layers.recordStructure(spans, p.spec.name, t.physical, tree)
          if (tree.size.toLong * Width > TocMatrix.HTableBudgetDoubles) chain += 1 else dp += 1
        }
      }
      Layers.encode(spans) ++ Layers.structure(spans) ++ parts.flatMap(p => Seq(
        Metric(s"core.times_matrix_ms.${p.spec.name}", spans.meanMs(s"core.times_matrix.${p.spec.name}"), "ms"),
        Metric(s"core.left_times_ms.${p.spec.name}", spans.meanMs(s"core.left_times.${p.spec.name}"), "ms"),
      )) ++ Seq(
        Metric("core.am_dp_batches", dp, "count"),
        Metric("core.am_chain_batches", chain, "count"),
        Metric("mgd.nn_step_ms", spans.meanMs("mgd.nn_step"), "ms"),
        Metric("mgd.nn_dense_ms", spans.meanMs("mgd.nn_dense"), "ms"),
        Metric("jvm.gc_ms", gcMs, "ms"),
        Metric("jvm.alloc_mb", allocMb, "MB"),
      )
    }

    // Lossless compression must give the same model: replay the rounds on
    // the generator's rows and compare each replica's parameters after as
    // many rounds as it trained.
    parts.zipWithIndex.foreach { case (p, a) =>
      val ref = NeuralNet.paper(p.spec.cols, p.spec.numClasses)
      val plain = p.rows.map { case (x, y) => MiniBatch(new PlainMatrix(x), y) }
      for (_ <- 0 to WarmUpRounds) Mgd.train(plain, ref, LearningRate, 1)
      for (n <- 1 to replicas.map(_.roundS.size).max) {
        Mgd.train(plain, ref, LearningRate, 1)
        replicas.filter(_.roundS.size == n).foreach { r =>
          out.check(Checks.closeParams(s"local-nn ${p.spec.name} NN of replica ${r.id}", ref.params, r.models(a).params, ParamTolerance))
        }
      }
    }

    Progress.phase("replayed on plain rows")
    val decodeRate = checkDecode(parts, cfg.threads, out)

    Seq(
      Metric("setup_s", setupS, "s"),
      Metric("encode_rows_per_s", totalRows / encodeTimes.min, "rows/s"),
      Metric("decode_rows_per_s", decodeRate, "rows/s"),
      Metric("encoded_bytes", parts.map(_.toc.map(_.sizeBytes).sum).sum.toDouble, "bytes"),
      Metric("train_rows_per_s", totalRows / Stats.quantile(roundS, 0.1), "rows/s"),
      Metric("epoch_s_p10", Stats.quantile(roundS, 0.1), "s"),
      Metric("retained_heap_mb", retained, "MB"),
    ) ++ perLayer
  }

  /** Parse and decode every batch from its bytes and compare it with the
    * generator's rows bit for bit; then time five more such passes on each
    * thread. Returns the 90th percentile of the passes' rows per second.
    */
  private def checkDecode(parts: Seq[Part], threads: Int, out: Outcome): Double = {
    val all = parts.flatMap(p => p.toc.map(_.toBytes).zip(p.rows.map(_._1)))
    all.foreach { case (bytes, x) =>
      out.check(Checks.sameBits("local-nn decode", x.data, new TocMatrix(TocPhysical.fromBytes(bytes)).decode.data))
    }
    val rates = Parallel.run(threads) { _ =>
      (1 to 5).map { _ =>
        val t0 = System.nanoTime()
        all.foreach { case (bytes, _) => new TocMatrix(TocPhysical.fromBytes(bytes)).decode }
        all.map(_._2.rows).sum / ((System.nanoTime() - t0) / 1e9)
      }
    }.flatten
    out.attempted += all.size
    Stats.quantile(rates, 0.9)
  }
}

/** Forwards to a program matrix and checks every `A·M` and `M·A` result
  * against plain loops over the batch's generator rows.
  */
final class CheckedMatrix(inner: CompressedMatrix, rows: DenseMatrix, out: Outcome, what: String)
    extends CompressedMatrix {
  def numRows: Int = inner.numRows
  def numCols: Int = inner.numCols
  def sizeBytes: Long = inner.sizeBytes
  def timesVector(v: Array[Double]): Array[Double] = inner.timesVector(v)
  def vectorTimes(v: Array[Double]): Array[Double] = inner.vectorTimes(v)
  def timesMatrix(m: DenseMatrix): DenseMatrix = {
    val r = inner.timesMatrix(m)
    val (expected, abs) = Checks.rowsTimes(rows, m)
    out.check(Checks.kernelMatches(s"$what A·M", expected, abs, r.data))
    r
  }
  def leftTimes(m: DenseMatrix): DenseMatrix = {
    val r = inner.leftTimes(m)
    val (expected, abs) = Checks.timesRows(m, rows)
    out.check(Checks.kernelMatches(s"$what M·A", expected, abs, r.data))
    r
  }
  def timesScalar(c: Double): CompressedMatrix = inner.timesScalar(c)
  def decode: DenseMatrix = inner.decode
}

/** The uncompressed batch: the kernels as plain loops over the rows. */
final class PlainMatrix(x: DenseMatrix) extends CompressedMatrix {
  def numRows: Int = x.rows
  def numCols: Int = x.cols
  def sizeBytes: Long = 8L * x.data.length
  def timesVector(v: Array[Double]): Array[Double] =
    Array.tabulate(x.rows)(i => (0 until x.cols).map(j => x(i, j) * v(j)).sum)
  def vectorTimes(v: Array[Double]): Array[Double] =
    Array.tabulate(x.cols)(j => (0 until x.rows).map(i => v(i) * x(i, j)).sum)
  def timesMatrix(m: DenseMatrix): DenseMatrix = new DenseMatrix(x.rows, m.cols, Checks.rowsTimes(x, m)._1)
  def leftTimes(m: DenseMatrix): DenseMatrix = new DenseMatrix(m.rows, x.cols, Checks.timesRows(m, x)._1)
  def timesScalar(c: Double): CompressedMatrix = new PlainMatrix(new DenseMatrix(x.rows, x.cols, x.data.map(_ * c)))
  def decode: DenseMatrix = x
}
