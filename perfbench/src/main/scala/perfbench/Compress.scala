package perfbench

import scala.collection.mutable

import repro.core.{DecodeTree, TocMatrix, TocPhysical}
import repro.data.{DatasetSpec, Datasets}
import repro.linalg.DenseMatrix
import repro.mgd.{MiniBatch, NeuralNet}

/** `compress`: the write side. Raw 250-row batches of all six analogs are
  * encoded to TOC bytes, parsed, given `C'` and fully decoded.
  *
  * A round is [[BatchesPerAnalog]] batches of every analog, then the edge batches.
  * Each of `cfg.threads` threads runs rounds on its own. Rates are per
  * thread and taken from the run's fast rounds (the 90th percentile of
  * rates), which this host's interference moves least.
  *
  * The traced run adds a kernel pass after the timed rounds: `A·M` and
  * `M·A` at p = [[KernelWidth]] and the paper's NN step over imagenet-like
  * batches (|C'|·p over `TocMatrix.HTableBudgetDoubles`, so the chain
  * kernels run) and census-like ones (under it, so Algorithms 7/8 run).
  */
object Compress {
  val BatchesPerAnalog = 4
  /** Untimed rounds first, so that the timed ones run compiled code. */
  val WarmUpRounds = 10
  /** Columns of `M` in the kernel pass: the paper NN's first layer width. */
  val KernelWidth = 200
  val KernelAnalogs: Seq[DatasetSpec] = Seq(Datasets.imagenet, Datasets.census)
  /** Untimed, then timed calls of each kernel and NN step per batch. */
  val KernelWarmUps = 3
  val KernelReps = 5

  private final case class Op(analog: String, x: DenseMatrix, knownFault: Boolean)

  /** One thread's per-round samples, and the bytes it allocated. */
  private final class Timings(val spans: Spans) {
    val encodeRate, decodeRate, tripRate, roundS = mutable.ArrayBuffer.empty[Double]
    var encodedBytes = 0L
    var allocated = 0L
  }

  def run(cfg: RunConfig, out: Outcome, spans: Spans): Seq[Metric] = {
    val (inputs, setupTimes) = (1 to 3).map { _ =>
      val t0 = System.nanoTime()
      val in = makeInputs(cfg.seed)
      (in, (System.nanoTime() - t0) / 1e9)
    }.unzip
    val (batches, edges) = inputs.last
    val setupS = cfg.startupS + Stats.median(setupTimes)
    val roundOps = batches ++ edges
    val roundRows = roundOps.map(_.x.rows).sum

    Progress.phase("set up")
    // One replica per thread, each round-tripping every batch of the round.
    Parallel.run(cfg.threads)(_ => for (_ <- 1 to WarmUpRounds) roundOps.foreach(op => roundTrip(op, out, null)))
    out.attempted += cfg.threads.toLong * WarmUpRounds * roundOps.size

    Progress.phase("warmed up")
    val gc0 = Jvm.gcMillis
    val until = System.nanoTime() + (cfg.seconds * 1e9).toLong
    val replicas = Parallel.run(cfg.threads) { _ =>
      val t = new Timings(if (spans == null) null else new Spans)
      val alloc0 = Jvm.threadAllocatedBytes
      while (t.roundS.isEmpty || System.nanoTime() < until) {
        var enc, dec, bytes = 0L
        roundOps.foreach { op => val r = roundTrip(op, out, t.spans); enc += r._1; dec += r._2; bytes += r._3 }
        t.encodeRate += roundRows / (enc / 1e9)
        t.decodeRate += roundRows / (dec / 1e9)
        t.tripRate += roundRows / ((enc + dec) / 1e9)
        t.roundS += (enc + dec) / 1e9
        t.encodedBytes = bytes
      }
      t.allocated = Jvm.threadAllocatedBytes - alloc0
      t
    }
    Progress.phase("timed rounds done")
    val rounds = replicas.map(_.roundS.size).sum
    out.attempted += rounds.toLong * roundOps.size
    val gcMs = (Jvm.gcMillis - gc0).toDouble / rounds
    val allocMb = replicas.map(_.allocated).sum / (1024.0 * 1024.0) / rounds
    if (spans != null) replicas.foreach(r => spans.merge(r.spans))
    def pooled(f: Timings => mutable.ArrayBuffer[Double]) = replicas.flatMap(f)

    out.samples ++= Seq("round_s" -> pooled(_.roundS),
                        "encode_rows_per_s" -> pooled(_.encodeRate), "decode_rows_per_s" -> pooled(_.decodeRate))
    val endToEnd = Seq(
      Metric("setup_s", setupS, "s"),
      Metric("encode_rows_per_s", Stats.quantile(pooled(_.encodeRate), 0.9), "rows/s"),
      Metric("decode_rows_per_s", Stats.quantile(pooled(_.decodeRate), 0.9), "rows/s"),
      Metric("encoded_bytes", replicas.head.encodedBytes.toDouble, "bytes"),
      Metric("train_rows_per_s", Stats.quantile(pooled(_.tripRate), 0.9), "rows/s"),
      Metric("epoch_s_p10", Stats.quantile(pooled(_.roundS), 0.1), "s"),
      Metric("retained_heap_mb", Jvm.retainedHeapMb, "MB"),
    )
    val perLayer =
      if (spans == null) Nil
      else Layers.encode(spans) ++ Layers.load(spans) ++ Layers.structure(spans) ++ kernelPass(cfg.seed, out, spans) ++ Seq(
        Metric("jvm.gc_ms", gcMs, "ms"),
        Metric("jvm.alloc_mb", allocMb, "MB"))
    endToEnd ++ perLayer
  }

  private def makeInputs(seed: Long): (Seq[Op], Seq[Op]) = {
    val perAnalog = Datasets.all.map { spec =>
      Inputs.batches(spec, Inputs.firstRow(seed), BatchesPerAnalog).map(b => Op(spec.name, b._1, knownFault = false))
    }
    val edges = Inputs.edgeBatches.map(e => Op(e.name, e.x, e.knownFault))
    ((0 until BatchesPerAnalog).flatMap(b => perAnalog.map(_(b))), edges)
  }

  /** Encode `op`'s batch to bytes and decode it back, then check the result.
    * Returns (encode ns, decode ns, encoded bytes). With `spans` set, each
    * layer is timed on its own and `C'` is also built on its own.
    */
  private def roundTrip(op: Op, out: Outcome, spans: Spans): (Long, Long, Int) = {
    val x = op.x
    val t0 = System.nanoTime()
    val (physical, bytes) = Layers.tracedEncode(x, spans)
    val t1 = System.nanoTime()
    val parsed = Layers.span(spans, "core.from_bytes")(TocPhysical.fromBytes(bytes))
    val decoded = Layers.span(spans, "core.decode")(new TocMatrix(parsed).decode)
    val t2 = System.nanoTime()

    val tree = Layers.span(spans, "core.decode_tree")(DecodeTree.buildFromPhysical(parsed))
    if (spans != null && Layers.analogs.contains(op.analog)) Layers.recordStructure(spans, op.analog, parsed, tree)

    val what = s"compress ${op.analog}"
    val sizeOk =
      if (bytes.length.toLong == physical.sizeBytes) None
      else Some(s"$what: toBytes has ${bytes.length} bytes, sizeBytes says ${physical.sizeBytes}")
    val shapeOk =
      if (decoded.rows == x.rows && decoded.cols == x.cols) None
      else Some(s"$what: decoded ${decoded.rows}x${decoded.cols}, expected ${x.rows}x${x.cols}")
    val bitsOk = Checks.sameBits(what, x.data, decoded.data)
    val pairs = Checks.storedPairs(tree, parsed.tokens)
    val cells = Checks.storedCells(x.data)
    val problem = sizeOk.orElse(shapeOk).orElse(bitsOk)
      .orElse(if (pairs == cells) None else Some(s"$what: encoding holds $pairs pairs, the batch has $cells stored cells"))
    problem.foreach { p =>
      out.fail()
      val knownFault = op.knownFault && sizeOk.isEmpty && shapeOk.isEmpty &&
        Checks.onlyNegativeZerosLost(x.data, decoded.data) &&
        pairs == cells - Checks.negativeZeroCells(x.data)
      if (!knownFault) out.wrong(p)
    }
    (t1 - t0, t2 - t1, bytes.length)
  }

  /** The traced kernel pass over [[BatchesPerAnalog]] batches of each of
    * [[KernelAnalogs]]: every `A·M` and `M·A` result is first checked
    * against plain loops over the rows, then every batch gets
    * [[KernelWarmUps]] untimed and [[KernelReps]] timed calls of each kernel
    * and of a paper NN step. The step's self time (`mgd.nn_dense`) is its
    * time minus the kernel spans recorded inside it by [[TimedMatrix]].
    */
  private def kernelPass(seed: Long, out: Outcome, spans: Spans): Seq[Metric] = {
    val rnd = new scala.util.Random(seed)
    def random(rows: Int, cols: Int) = new DenseMatrix(rows, cols, Array.fill(rows * cols)(rnd.nextGaussian()))
    val nnSpans = new Spans
    var dp, chain = 0
    val work = KernelAnalogs.flatMap { spec =>
      Inputs.batches(spec, Inputs.firstRow(seed), BatchesPerAnalog).map { case (x, y) =>
        val toc = new TocMatrix(Layers.tracedEncode(x, null)._1)
        val m = random(x.cols, KernelWidth)
        val mt = random(KernelWidth, x.rows)
        val (am, amAbs) = Checks.rowsTimes(x, m)
        out.check(Checks.kernelMatches(s"compress ${spec.name} A·M", am, amAbs, toc.timesMatrix(m).data))
        val (ma, maAbs) = Checks.timesRows(mt, x)
        out.check(Checks.kernelMatches(s"compress ${spec.name} M·A", ma, maAbs, toc.leftTimes(mt).data))
        if (DecodeTree.buildFromPhysical(toc.physical).size.toLong * KernelWidth > TocMatrix.HTableBudgetDoubles) chain += 1
        else dp += 1
        val nn = new TimedModel(NeuralNet.paper(spec.cols, spec.numClasses), "compress.nn", nnSpans, "mgd.nn_step", "mgd.nn_dense")
        (spec.name, toc, m, mt, nn, MiniBatch(new TimedMatrix(toc, nnSpans, spec.name), y))
      }
    }
    for (rep <- 1 to KernelWarmUps + KernelReps) {
      val s = if (rep > KernelWarmUps) spans else null
      work.foreach { case (analog, toc, m, mt, nn, batch) =>
        Layers.span(s, s"core.times_matrix.$analog")(toc.timesMatrix(m))
        Layers.span(s, s"core.left_times.$analog")(toc.leftTimes(mt))
        if (s == null) nn.inner.step(MiniBatch(toc, batch.y), LocalNn.LearningRate)
        else nn.step(batch, LocalNn.LearningRate)
      }
    }
    StepLog.drain("compress.nn")
    KernelAnalogs.flatMap(spec => Seq(
      Metric(s"core.times_matrix_ms.${spec.name}", spans.meanMs(s"core.times_matrix.${spec.name}"), "ms"),
      Metric(s"core.left_times_ms.${spec.name}", spans.meanMs(s"core.left_times.${spec.name}"), "ms"),
    )) ++ Seq(
      Metric("core.am_dp_batches", dp, "count"),
      Metric("core.am_chain_batches", chain, "count"),
      Metric("mgd.nn_step_ms", nnSpans.meanMs("mgd.nn_step"), "ms"),
      Metric("mgd.nn_dense_ms", nnSpans.meanMs("mgd.nn_dense"), "ms"),
    )
  }
}
