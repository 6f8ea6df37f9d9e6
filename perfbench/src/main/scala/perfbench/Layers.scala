package perfbench

import repro.core.{DecodeTree, PrefixTreeEncoder, SparseEncoder, TocPhysical}
import repro.data.Datasets
import repro.linalg.DenseMatrix

/** Per-layer metrics derived from recorded spans and counters. A metric a
  * workload does not produce is reported as 0 by `run.py`.
  */
object Layers {
  val analogs: Seq[String] = Datasets.all.map(_.name)

  private val Mb = 1024.0 * 1024.0

  /** `f`, timed as span `name` when `spans` is set. */
  def span[A](spans: Spans, name: String)(f: => A): A = if (spans == null) f else spans.time(name)(f)

  /** TOC-encode `x` through the four encode layers: sparse encoding,
    * Algorithm 1, physical encoding and bytes. With `spans` set, each layer
    * is timed on its own and the bytes Algorithm 1 allocates are counted.
    * Returns the physical encoding and its bytes.
    */
  def tracedEncode(x: DenseMatrix, spans: Spans): (TocPhysical, Array[Byte]) = {
    val sparse = span(spans, "core.sparse_encode")(SparseEncoder.encode(x))
    val a0 = if (spans == null) 0L else Jvm.threadAllocatedBytes
    val logical = span(spans, "core.prefix_tree_encode")(PrefixTreeEncoder.encode(sparse))
    if (spans != null) spans.add("core.prefix_tree_alloc", Jvm.threadAllocatedBytes - a0)
    val physical = span(spans, "core.physical_encode")(TocPhysical.encode(x.rows, x.cols, logical))
    (physical, span(spans, "core.to_bytes")(physical.toBytes))
  }

  /** Structure counts of one batch, read from the program's public fields. */
  def recordStructure(spans: Spans, analog: String, p: TocPhysical, tree: DecodeTree): Unit = {
    spans.add(s"core.nnz.$analog", Checks.storedPairs(tree, p.tokens))
    spans.add(s"core.i_len.$analog", p.iCols.length.toLong)
    spans.add(s"core.d_len.$analog", p.tokens.length.toLong)
    spans.add(s"core.tree_nodes.$analog", tree.size.toLong)
    spans.add(s"core.dict_len.$analog", p.dict.length.toLong)
    spans.add(s"core.batch_bytes.$analog", p.sizeBytes)
  }

  /** Mean per batch of each structure count, for every analog seen. */
  def structure(spans: Spans): Seq[Metric] =
    for {
      a <- analogs if spans.count(s"core.nnz.$a") > 0
      (k, unit) <- Seq("nnz" -> "count", "i_len" -> "count", "d_len" -> "count",
                       "tree_nodes" -> "count", "dict_len" -> "count", "batch_bytes" -> "bytes")
    } yield Metric(s"core.$k.$a", spans.mean(s"core.$k.$a"), unit)

  /** Sparse encoding, Algorithm 1, physical encoding and bytes, per batch. */
  def encode(spans: Spans): Seq[Metric] = Seq(
    Metric("core.sparse_encode_ms", spans.meanMs("core.sparse_encode"), "ms"),
    Metric("core.prefix_tree_encode_ms", spans.meanMs("core.prefix_tree_encode"), "ms"),
    Metric("core.physical_encode_ms", spans.meanMs("core.physical_encode"), "ms"),
    Metric("core.to_bytes_ms", spans.meanMs("core.to_bytes"), "ms"),
    Metric("core.prefix_tree_alloc_mb", spans.mean("core.prefix_tree_alloc") / Mb, "MB"),
  )

  /** Parsing, the `C'` build and full decode, per batch. The decode span
    * builds its own `C'`, so its self time subtracts the separately timed
    * build of the same batches.
    */
  def load(spans: Spans): Seq[Metric] = Seq(
    Metric("core.from_bytes_ms", spans.meanMs("core.from_bytes"), "ms"),
    Metric("core.decode_tree_ms", spans.meanMs("core.decode_tree"), "ms"),
  ) ++ (if (spans.count("core.decode") == 0) Nil else Seq(
    Metric("core.decode_ms", math.max(0.0, spans.meanMs("core.decode") - spans.meanMs("core.decode_tree")), "ms")))
}
