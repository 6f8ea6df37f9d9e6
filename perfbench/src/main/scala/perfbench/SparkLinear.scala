package perfbench

import java.util.concurrent.ConcurrentLinkedQueue
import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.scheduler.{SparkListener, SparkListenerTaskEnd}
import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.storage.StorageLevel

import repro.core.{DecodeTree, TocMatrix, TocPhysical}
import repro.data.{DatasetSpec, Datasets}
import repro.linalg.MatrixCodec
import repro.mgd.{LogisticRegression, MiniBatch, Model, Svm}
import repro.sparkml.{EncodedBatchRow, SparkMgd, SparkMiniBatch}

/** `spark-linear`: LR and SVM trained by `SparkMgd` over imagenet-like
  * batches that `SparkMiniBatch.encodeBatches` encoded inside executors.
  * Every epoch re-parses the bytes and rebuilds `C'`.
  *
  * A round is one LR epoch and one SVM epoch. Timings come from the run's
  * fast rounds (the 10th percentile) or its fastest of three passes.
  */
object SparkLinear {
  val Partitions = 8
  val BatchesPerPartition = 96
  val Rows: Int = Partitions * BatchesPerPartition * Inputs.BatchRows
  val LearningRate = 0.05
  /** Tolerance of the parameter check against [[LinearReference]]. */
  val ParamTolerance = 1e-9
  /** Untimed rounds first, so that the timed ones run compiled code. */
  val WarmUpRounds = 4
  /** Rounds replayed by the parameter check: one epoch of each model. */
  val CheckedRounds = 1

  private val LrSteps = "spark-linear.lr"
  private val SvmSteps = "spark-linear.svm"

  def run(spark: SparkSession, cfg: RunConfig, out: Outcome, spans: Spans): Seq[Metric] = {
    val spec = Datasets.imagenet
    val from = Inputs.firstRow(cfg.seed)
    // The rows are generated and cached first, so that each timed
    // encoding job reads them from memory and times `encodeBatches` alone.
    val g0 = System.nanoTime()
    val input = generate(spark, spec, from).persist(StorageLevel.MEMORY_ONLY)
    input.count()
    val generateS = (System.nanoTime() - g0) / 1e9
    val stored = spark.sparkContext.getRDDStorageInfo
    Progress.phase(f"input cached: ${stored.map(_.numCachedPartitions).sum} of $Partitions partitions, " +
                   f"${stored.map(_.memSize).sum / 1048576.0}%.0f MB in memory, ${stored.map(_.diskSize).sum} bytes on disk")
    val encodeTimes = mutable.ArrayBuffer.empty[Double]
    var batches: Dataset[EncodedBatchRow] = null
    for (_ <- 1 to 3) {
      if (batches != null) batches.unpersist(blocking = true)
      val t0 = System.nanoTime()
      batches = SparkMiniBatch.encodeBatches(input, Inputs.BatchRows, "TOC").persist(StorageLevel.MEMORY_ONLY)
      batches.count()
      encodeTimes += (System.nanoTime() - t0) / 1e9
    }
    input.unpersist(blocking = true)
    val setupS = cfg.startupS + cfg.sessionS + generateS + Stats.median(encodeTimes)
    val numBatches = Partitions * BatchesPerPartition

    Progress.phase("set up")
    val tasks = new TaskLog
    if (spans != null) spark.sparkContext.addSparkListener(tasks)

    var lrModel: Model = new TimedModel(new LogisticRegression(spec.cols), LrSteps)
    var svmModel: Model = new TimedModel(new Svm(spec.cols), SvmSteps)
    val init = (lrModel.params, svmModel.params)
    var checkedParams: (Array[Double], Array[Double]) = null

    val epochS, roundS, epochMs, driverMs = mutable.ArrayBuffer.empty[Double]
    val taskEnds = mutable.ArrayBuffer.empty[TaskLog.End]
    def epoch(m: Model, channel: String, timed: Boolean): Model = {
      val t0 = System.nanoTime()
      val next = SparkMgd.trainEpoch(batches, m, LearningRate)
      val dt = (System.nanoTime() - t0) / 1e9
      val steps = StepLog.drain(channel)
      out.attempted += steps.length
      if (steps.length != numBatches) out.wrong(s"spark-linear: an epoch made ${steps.length} steps over $numBatches batches")
      val ends = if (spans == null) Nil else tasks.await(Partitions)
      if (timed) {
        epochS += dt
        if (spans != null) {
          taskEnds ++= ends
          epochMs += dt * 1e3
          val taskSpanMs = if (ends.isEmpty) 0L else ends.map(_.finishMs).max - ends.map(_.launchMs).min
          driverMs += dt * 1e3 - taskSpanMs
        }
      }
      next
    }

    Progress.phase("training")
    val gc0 = Jvm.gcMillis; val alloc0 = Jvm.allocatedBytes
    var round = 0
    var until = Long.MaxValue
    while (round <= WarmUpRounds || System.nanoTime() < until) {
      val timed = round >= WarmUpRounds
      if (round == WarmUpRounds) until = System.nanoTime() + (cfg.seconds * 1e9).toLong
      val before = epochS.length
      lrModel = epoch(lrModel, LrSteps, timed)
      svmModel = epoch(svmModel, SvmSteps, timed)
      if (timed) roundS += (epochS(before) + epochS(before + 1)) / 2
      round += 1
      if (round == CheckedRounds) checkedParams = (lrModel.params, svmModel.params)
    }
    out.samples ++= Seq("round_s" -> roundS)
    Progress.phase("timed rounds done")
    val gcMs = (Jvm.gcMillis - gc0).toDouble / round
    val allocMb = (Jvm.allocatedBytes - alloc0) / (1024.0 * 1024.0) / round
    if (spans != null) spark.sparkContext.removeSparkListener(tasks)
    val retained = Jvm.retainedHeapMb
    val encodedBytes = SparkMiniBatch.encodedSizeBytes(batches)

    val perLayer = if (spans == null) Nil else {
      val pass = tracedPass(batches, lrModel, svmModel, spec.name)
      pass.foreach(spans.merge)
      val tasksPerEpoch = taskEnds.size.toDouble / epochMs.size
      Layers.load(spans) ++ Layers.structure(spans) ++ Seq(
        Metric("core.times_vector_ms", spans.meanMs("core.times_vector"), "ms"),
        Metric("core.vector_times_ms", spans.meanMs("core.vector_times"), "ms"),
        Metric("linalg.codec_deserialize_ms", spans.meanMs("linalg.codec_deserialize"), "ms"),
        Metric("mgd.lr_step_ms", spans.meanMs("mgd.lr_step"), "ms"),
        Metric("mgd.svm_step_ms", spans.meanMs("mgd.svm_step"), "ms"),
        Metric("sparkml.encode_batches_s", Stats.median(encodeTimes), "s"),
        Metric("sparkml.epoch_ms", Stats.median(epochMs), "ms"),
        Metric("sparkml.decode_batch_ms", spans.meanMs("sparkml.decode_batch"), "ms"),
        Metric("sparkml.driver_ms", Stats.median(driverMs), "ms"),
        Metric("sparkml.tasks", tasksPerEpoch, "count"),
        Metric("sparkml.task_run_ms", taskEnds.map(_.runMs.toDouble).sum / taskEnds.size, "ms"),
        Metric("sparkml.scheduler_delay_ms", taskEnds.map(_.schedulerDelayMs.toDouble).sum / taskEnds.size, "ms"),
        Metric("sparkml.task_gc_ms", taskEnds.map(_.gcMs.toDouble).sum / taskEnds.size, "ms"),
        Metric("jvm.gc_ms", gcMs, "ms"),
        Metric("jvm.alloc_mb", allocMb, "MB"),
      )
    }

    Progress.phase("traced pass done")
    val decodeRate = checkBatches(batches, spec, from, cfg.threads, out)
    val (refLr, refSvm) = reference(spec, from, init, CheckedRounds)
    out.check(Checks.closeParams("spark-linear LR", refLr, checkedParams._1, ParamTolerance))
    out.check(Checks.closeParams("spark-linear SVM", refSvm, checkedParams._2, ParamTolerance))
    batches.unpersist(blocking = true)
    Progress.phase("checked")

    Seq(
      Metric("setup_s", setupS, "s"),
      Metric("encode_rows_per_s", Rows / encodeTimes.min, "rows/s"),
      Metric("decode_rows_per_s", decodeRate, "rows/s"),
      Metric("encoded_bytes", encodedBytes.toDouble, "bytes"),
      Metric("train_rows_per_s", Rows / Stats.quantile(roundS, 0.1), "rows/s"),
      Metric("epoch_s_p10", Stats.quantile(roundS, 0.1), "s"),
      Metric("retained_heap_mb", retained, "MB"),
    ) ++ perLayer
  }

  /** Generator rows `[from, from + Rows)` as a DataFrame `(id, features,
    * label)` in [[Partitions]] partitions, generated inside executors as
    * `SparkMiniBatch.generateDf` does for rows starting at 0.
    */
  private def generate(spark: SparkSession, spec: DatasetSpec, from: Long): DataFrame = {
    import spark.implicits._
    spark.range(from, from + Rows, 1, Partitions).mapPartitions { ids =>
      val ctx = new Datasets.GenContext(spec)
      ids.map { i => val x = Datasets.row(ctx, i); (i.longValue, x, Datasets.label(ctx, i, x)) }
    }.toDF("id", "features", "label")
  }

  /** The rows of batch `bi` of partition `pid`: `spark.range` gives each
    * partition an equal contiguous id range, and `encodeBatches` cuts it
    * into 250-row batches in order.
    */
  private def batchRows(spec: DatasetSpec, from: Long, pid: Int, bi: Int) =
    Inputs.batches(spec, from + pid.toLong * (Rows / Partitions) + bi.toLong * Inputs.BatchRows, 1).head

  /** Decode every batch from its bytes and compare it with the generator's
    * rows bit for bit; then decode them all three more times on each of
    * `threads` threads. Returns the 90th percentile of those passes' rows
    * per second.
    */
  private def checkBatches(batches: Dataset[EncodedBatchRow], spec: DatasetSpec, from: Long, threads: Int,
                           out: Outcome): Double = {
    val rows = batches.collect().sortBy(_.batch_id)
    val expectedIds = for (p <- 0 until Partitions; b <- 0 until BatchesPerPartition) yield p * 1000000L + b
    if (rows.map(_.batch_id).toSeq != expectedIds)
      out.wrong(s"spark-linear: batch ids ${rows.map(_.batch_id).take(5).mkString(",")}... are not the expected ${expectedIds.size}")
    rows.foreach { r =>
      val (x, y) = batchRows(spec, from, (r.batch_id / 1000000L).toInt, (r.batch_id % 1000000L).toInt)
      out.check(Checks.sameBits(s"spark-linear batch ${r.batch_id}", x.data, MatrixCodec.deserialize(r.x).decode.data))
      out.check(Checks.sameBits(s"spark-linear labels ${r.batch_id}", y, MatrixCodec.deserializeVector(r.y)))
    }
    out.attempted += rows.length
    val rates = Parallel.run(threads) { _ =>
      (1 to 3).map { _ =>
        val t0 = System.nanoTime()
        rows.foreach(r => MatrixCodec.deserialize(r.x).decode)
        Rows / ((System.nanoTime() - t0) / 1e9)
      }
    }.flatten
    out.attempted += rates.length.toLong * rows.length
    out.samples ++= Seq("decode_rows_per_s" -> rates)
    Stats.quantile(rates, 0.9)
  }

  /** [[LinearReference]] over the generator's rows for `rounds` epochs of each model. */
  private def reference(spec: DatasetSpec, from: Long, init: (Array[Double], Array[Double]), rounds: Int): (Array[Double], Array[Double]) = {
    var ws = Seq(init._1, init._2)
    for (_ <- 0 until rounds) {
      val parts = (0 until Partitions).map(p => (0 until BatchesPerPartition).iterator.map(b => batchRows(spec, from, p, b)))
      ws = LinearReference.epochs(ws, parts, LearningRate, svm = Seq(false, true))
    }
    (ws(0), ws(1))
  }

  /** The traced executor pass: over the cached batches, time each load
    * layer and one step of each model on a batch whose `C'` is built.
    * Returns each task's spans.
    */
  private def tracedPass(batches: Dataset[EncodedBatchRow], lrModel: Model, svmModel: Model,
                         analog: String): Array[Spans] = {
    val sc = batches.sparkSession.sparkContext
    val bcLr = sc.broadcast(lrModel.copyModel)
    val bcSvm = sc.broadcast(svmModel.copyModel)
    val lr = LearningRate
    val out = batches.rdd.mapPartitions { it =>
      val spans = new Spans
      val lrLocal = bcLr.value.copyModel
      val svmLocal = bcSvm.value.copyModel
      it.foreach { row =>
        val batch = spans.time("sparkml.decode_batch")(SparkMiniBatch.decodeBatch(row))
        spans.time("linalg.codec_deserialize")(MatrixCodec.deserialize(row.x))
        val payload = java.util.Arrays.copyOfRange(row.x, 1, row.x.length)
        val physical = spans.time("core.from_bytes")(TocPhysical.fromBytes(payload))
        val tree = spans.time("core.decode_tree")(DecodeTree.buildFromPhysical(physical))
        Layers.recordStructure(spans, analog, physical, tree)
        val toc = batch.x.asInstanceOf[TocMatrix]
        toc.timesVector(new Array[Double](toc.numCols)) // builds the memoized C' outside the spans
        val timed = MiniBatch(new TimedMatrix(toc, spans, analog), batch.y)
        spans.time("mgd.lr_step")(lrLocal.step(timed, lr))
        spans.time("mgd.svm_step")(svmLocal.step(timed, lr))
      }
      Iterator.single(spans)
    }.collect()
    bcLr.destroy(); bcSvm.destroy()
    StepLog.drain(LrSteps); StepLog.drain(SvmSteps)
    out
  }
}

/** Task-end events from the Spark listener bus, which delivers them
  * asynchronously.
  */
final class TaskLog extends SparkListener {
  private val ends = new ConcurrentLinkedQueue[TaskLog.End]()

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val info = e.taskInfo; val m = e.taskMetrics
    if (info != null && m != null) {
      val gettingResult = if (info.gettingResultTime > 0) info.finishTime - info.gettingResultTime else 0L
      val delay = info.duration - m.executorRunTime - m.executorDeserializeTime - m.resultSerializationTime - gettingResult
      ends.add(TaskLog.End(info.launchTime, info.finishTime, m.executorRunTime, m.jvmGCTime, math.max(0L, delay)))
    }
  }

  /** Wait (up to 10 s) until `n` task ends have arrived, then take them all. */
  def await(n: Int): Seq[TaskLog.End] = {
    val deadline = System.nanoTime() + 10000000000L
    while (ends.size < n && System.nanoTime() < deadline) Thread.sleep(1)
    val out = mutable.ArrayBuffer.empty[TaskLog.End]
    var e = ends.poll()
    while (e != null) { out += e; e = ends.poll() }
    out.toSeq
  }
}

object TaskLog {
  final case class End(launchMs: Long, finishMs: Long, runMs: Long, gcMs: Long, schedulerDelayMs: Long)
}
