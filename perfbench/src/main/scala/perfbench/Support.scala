package perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.{ConcurrentHashMap, ConcurrentLinkedQueue}
import scala.collection.mutable
import scala.jdk.CollectionConverters._

import repro.linalg.{CompressedMatrix, DenseMatrix}
import repro.mgd.{MiniBatch, Model}

/** One reported figure. */
final case class Metric(name: String, value: Double, unit: String)

/** What one run attempted, how many operations failed, and whether every
  * operation that did not fail produced a correct result.
  */
final class Outcome {
  var attempted: Long = 0L
  @volatile var failed: Long = 0L
  /** Raw samples behind the metrics, kept for the results file. */
  val samples = mutable.LinkedHashMap.empty[String, collection.Seq[Double]]
  private val problems = mutable.ArrayBuffer.empty[String]

  def correct: Boolean = synchronized(problems.isEmpty)

  /** A wrong result from an operation that is not one of the known faults. */
  def wrong(msg: String): Unit = synchronized { if (problems.size < 20) problems += msg; else problems(19) = "(more)" }

  /** An operation failed. */
  def fail(): Unit = synchronized(failed += 1)

  /** Record a check: `None` passes, `Some(why)` marks the run incorrect. */
  def check(result: Option[String]): Unit = result.foreach(wrong)

  def report(): Unit = synchronized(problems).foreach(p => Console.err.println(s"[perfbench] WRONG: $p"))
}

/** Span recorder: total nanoseconds and call count per span name.
  *
  * Not thread-safe: the main thread owns one, and each Spark task makes its
  * own and ships it back to the driver, where [[merge]] folds it in.
  */
final class Spans extends Serializable {
  private val totals = mutable.LinkedHashMap.empty[String, Array[Long]]

  def add(name: String, nanos: Long, n: Long = 1L): Unit = {
    val t = totals.getOrElseUpdate(name, Array(0L, 0L))
    t(0) += nanos; t(1) += n
  }

  def time[A](name: String)(f: => A): A = {
    val t0 = System.nanoTime()
    val a = f
    add(name, System.nanoTime() - t0)
    a
  }

  def totalNanos(name: String): Long = totals.get(name).fold(0L)(_(0))
  def count(name: String): Long = totals.get(name).fold(0L)(_(1))

  /** Mean amount per recorded call, 0 when the span never ran. */
  def mean(name: String): Double =
    if (count(name) == 0) 0.0 else totalNanos(name).toDouble / count(name)

  def meanMs(name: String): Double = mean(name) / 1e6

  def merge(o: Spans): Unit = o.totals.foreach { case (k, v) => add(k, v(0), v(1)) }
}

/** Sum of all compressed-kernel time recorded through [[TimedMatrix]]. */
object Spans { val Kernels = "kernels" }

/** Step durations of models trained through [[TimedModel]], per channel.
  *
  * A JVM-wide singleton so that executor-side copies of a model (Spark
  * `local[k]` runs executors in the driver JVM) report to the same place.
  */
object StepLog {
  private val logs = new ConcurrentHashMap[String, ConcurrentLinkedQueue[java.lang.Long]]()

  def add(channel: String, nanos: Long): Unit =
    logs.computeIfAbsent(channel, _ => new ConcurrentLinkedQueue[java.lang.Long]()).add(nanos)

  /** Remove and return every step duration recorded so far on `channel`. */
  def drain(channel: String): Array[Long] = {
    val q = logs.get(channel)
    if (q == null) Array.empty
    else {
      val out = mutable.ArrayBuilder.make[Long]
      var x = q.poll()
      while (x != null) { out += x.longValue; x = q.poll() }
      out.result()
    }
  }
}

/** Forwards to a program model and times each `step`.
  *
  * With `spans` set (the traced local run), it also records the step as
  * `stepSpan` and the step's time outside the compressed kernels as
  * `denseSpan`.
  */
final class TimedModel(val inner: Model, channel: String,
                       @transient spans: Spans = null,
                       stepSpan: String = "", denseSpan: String = "") extends Model {
  def step(batch: MiniBatch, lr: Double): Unit = {
    val k0 = if (spans == null) 0L else spans.totalNanos(Spans.Kernels)
    val t0 = System.nanoTime()
    inner.step(batch, lr)
    val dt = System.nanoTime() - t0
    StepLog.add(channel, dt)
    if (spans != null) {
      spans.add(stepSpan, dt)
      spans.add(denseSpan, dt - (spans.totalNanos(Spans.Kernels) - k0))
    }
  }
  def loss(batch: MiniBatch): Double = inner.loss(batch)
  def params: Array[Double] = inner.params
  def setParams(p: Array[Double]): Unit = inner.setParams(p)
  def copyModel: Model = new TimedModel(inner.copyModel, channel, spans, stepSpan, denseSpan)
}

/** Forwards to a program matrix and records a span around each kernel call.
  * `suffix` tags the matrix kernels with the batch's analog.
  */
final class TimedMatrix(val inner: CompressedMatrix, spans: Spans, suffix: String)
    extends CompressedMatrix {
  private def kernel[A](name: String)(f: => A): A = {
    val t0 = System.nanoTime()
    val a = f
    val dt = System.nanoTime() - t0
    spans.add(name, dt); spans.add(Spans.Kernels, dt)
    a
  }
  def numRows: Int = inner.numRows
  def numCols: Int = inner.numCols
  def sizeBytes: Long = inner.sizeBytes
  def timesVector(v: Array[Double]): Array[Double] = kernel("core.times_vector")(inner.timesVector(v))
  def vectorTimes(v: Array[Double]): Array[Double] = kernel("core.vector_times")(inner.vectorTimes(v))
  def timesMatrix(m: DenseMatrix): DenseMatrix = kernel(s"core.times_matrix.$suffix")(inner.timesMatrix(m))
  def leftTimes(m: DenseMatrix): DenseMatrix = kernel(s"core.left_times.$suffix")(inner.leftTimes(m))
  def timesScalar(c: Double): CompressedMatrix = inner.timesScalar(c)
  def decode: DenseMatrix = inner.decode
}

/** Order statistics over run samples. */
object Stats {
  /** Linear-interpolated quantile, `q` in [0, 1]. */
  def quantile(xs: collection.Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of no samples")
    val s = xs.sorted
    val pos = q * (s.length - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(lo + 1, s.length - 1)
    s(lo) + (pos - lo) * (s(hi) - s(lo))
  }
  def median(xs: collection.Seq[Double]): Double = quantile(xs, 0.5)
}

/** JVM-wide counters read around a workload's timed loop. */
object Jvm {
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  def gcMillis: Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum

  /** Bytes allocated so far by every live thread (executor threads included;
    * threads that have ended no longer count).
    */
  def allocatedBytes: Long = {
    val ids = threads.getAllThreadIds
    threads.getThreadAllocatedBytes(ids).filter(_ > 0).sum
  }

  /** Bytes allocated so far by the calling thread. */
  def threadAllocatedBytes: Long = threads.getCurrentThreadAllocatedBytes

  /** Heap in use after full collections, in MB. */
  def retainedHeapMb: Double = {
    var i = 0
    while (i < 3) { System.gc(); i += 1 }
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }
}

/** Phase timestamps on stderr, to see where a run's wall time goes. */
object Progress {
  private val t0 = System.nanoTime()
  def phase(msg: String): Unit = Console.err.println(f"[perfbench] ${(System.nanoTime() - t0) / 1e9}%7.2f s  $msg")
}

/** Runs the same body on several threads, one replica each. */
object Parallel {
  /** Runs `body(r)` for `r` in `0 until k`, each on its own thread, waits
    * for all of them and returns their results in order.
    */
  def run[A](k: Int)(body: Int => A): IndexedSeq[A] = {
    val results = new Array[Any](k)
    val errors = new ConcurrentLinkedQueue[Throwable]()
    val threads = (0 until k).map { r =>
      new Thread(() => try results(r) = body(r) catch { case t: Throwable => errors.add(t) }, s"replica-$r")
    }
    threads.foreach(_.start())
    threads.foreach(_.join())
    if (!errors.isEmpty) throw errors.peek()
    results.toIndexedSeq.map(_.asInstanceOf[A])
  }
}
