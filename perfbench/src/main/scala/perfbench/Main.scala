package perfbench

import java.lang.management.ManagementFactory

import org.apache.spark.sql.SparkSession

/** How one run is set up. `startupS` is the time from process launch to
  * `main`, `sessionS` the SparkSession start (0 when the workload has none),
  * `threads` the number of worker threads (Spark's `local[k]`, or replicas).
  */
final case class RunConfig(seed: Long, seconds: Double, trace: Boolean, startupS: Double, sessionS: Double, threads: Int)

/** Runs one workload and prints its result as one line on stdout:
  * `PERFBENCH_RESULT {...}`. `run.py` turns that into the metric lines, the
  * final JSON line and the results file.
  *
  * Usage: `--workload <compress|spark-linear|local-nn> --seed <n>
  * --seconds <s> --trace <0|1> [--launched-at <epoch seconds>]`
  */
object Main {
  val Workloads = Seq("compress", "spark-linear", "local-nn")

  def main(argv: Array[String]): Unit = {
    val args = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def arg(k: String): String = args.getOrElse(k, usage(s"missing --$k"))
    val workload = arg("workload")
    if (!Workloads.contains(workload)) usage(s"unknown workload '$workload'")
    val seed = arg("seed").toLong
    val seconds = arg("seconds").toDouble
    val trace = arg("trace") match { case "0" => false; case "1" => true; case t => usage(s"--trace $t") }
    val startupS = args.get("launched-at").fold(ManagementFactory.getRuntimeMXBean.getUptime / 1e3)(
      t => System.currentTimeMillis() / 1e3 - t.toDouble)

    Progress.phase("started")
    val threads = math.min(4, Runtime.getRuntime.availableProcessors)
    val out = new Outcome
    val spans = if (trace) new Spans else null
    val metrics =
      if (workload == "spark-linear") {
        val t0 = System.nanoTime()
        val spark = SparkSession.builder
          .master(s"local[$threads]")
          .appName("perfbench")
          .config("spark.ui.enabled", "false")
          .config("spark.driver.host", "127.0.0.1")
          .config("spark.sql.shuffle.partitions", threads.toString)
          .config("spark.local.dir", sys.props.getOrElse("perfbench.sparkLocalDir", "spark-local"))
          .config("spark.sql.warehouse.dir", sys.props.getOrElse("perfbench.sparkLocalDir", "spark-local") + "/warehouse")
          .getOrCreate()
        val cfg = RunConfig(seed, seconds, trace, startupS, (System.nanoTime() - t0) / 1e9, threads)
        try SparkLinear.run(spark, cfg, out, spans) finally spark.stop()
      } else {
        val cfg = RunConfig(seed, seconds, trace, startupS, 0.0, threads)
        if (workload == "compress") Compress.run(cfg, out, spans) else LocalNn.run(cfg, out, spans)
      }
    out.report()

    val env = Seq(
      "java" -> s"${sys.props("java.vm.name")} ${sys.props("java.runtime.version")}",
      "nproc" -> Runtime.getRuntime.availableProcessors.toString,
      "threads" -> threads.toString,
      "seed" -> seed.toString,
    )
    val (perLayer, endToEnd) = metrics.partition(_.name.contains('.'))
    println("PERFBENCH_RESULT " + obj(Seq(
      "correct" -> out.correct.toString,
      "attempted" -> out.attempted.toString,
      "failed" -> out.failed.toString,
      "end_to_end" -> list(endToEnd),
      "per_layer" -> list(perLayer),
      "env" -> obj(env.map { case (k, v) => k -> str(v) }),
      "samples" -> obj(out.samples.toSeq.map { case (k, v) => k -> v.map(x => java.lang.Double.toString(x)).mkString("[", ", ", "]") }),
    )))
  }

  private def usage(msg: String): Nothing = {
    Console.err.println(s"perfbench: $msg\nusage: --workload <${Workloads.mkString("|")}> --seed <n> --seconds <s> --trace <0|1>")
    sys.exit(2)
  }

  private def str(s: String): String = "\"" + s.replace("\\", "\\\\").replace("\"", "\\\"") + "\""
  private def obj(kv: Seq[(String, String)]): String = kv.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
  private def list(ms: Seq[Metric]): String = ms.map { m =>
    val v = if (m.value.isNaN || m.value.isInfinite) "null" else java.lang.Double.toString(m.value)
    obj(Seq("name" -> str(m.name), "value" -> v, "unit" -> str(m.unit)))
  }.mkString("[", ", ", "]")
}
