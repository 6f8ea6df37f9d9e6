#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload <compress|spark-linear|local-nn> \
        --seed <n> --seconds <s> --trace <0|1>

The first run in a checkout builds the benchmark (perfbench/build.sbt, which
compiles the repository's src/main/scala with the harness) into .bench_build;
later runs reuse that build until a source file changes. Standard output
carries one `name value unit` line per metric, then one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics (0 for a layer the workload does not run).
Every run also writes .bench_build/results/<workload>-seed<n>-trace<t>.json.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CLASSPATH = os.path.join(BUILD, "classpath.txt")
STAMP = os.path.join(BUILD, "build.stamp")
WORKLOADS = ("compress", "spark-linear", "local-nn")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

JVM_OPTS = [
    "-Xms3g", "-Xmx3g", "-XX:+UseParallelGC", "-Xmn1g", "-XX:+UseTransparentHugePages", "-XX:+AlwaysPreTouch",
    "-XX:+IgnoreUnrecognizedVMOptions",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
] + ["--add-opens=java.base/%s=ALL-UNNAMED" % p for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def sources():
    """Every file the build reads, in a stable order."""
    roots = [os.path.join(ROOT, "src", "main"), os.path.join(HERE, "src", "main"), os.path.join(HERE, "project")]
    files = [os.path.join(HERE, "build.sbt")]
    for r in roots:
        for d, dirs, names in os.walk(r):
            dirs[:] = sorted(x for x in dirs if x not in ("target", "project"))
            files += [os.path.join(d, n) for n in sorted(names)]
    return files


def build():
    digest = hashlib.sha256()
    for f in sources():
        digest.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            digest.update(fh.read())
    stamp = digest.hexdigest()
    if os.path.exists(CLASSPATH) and os.path.exists(STAMP) and open(STAMP).read() == stamp:
        return
    os.makedirs(BUILD, exist_ok=True)
    cmd = ["sbt", "--batch",
           "-Dsbt.global.base=" + os.path.join(BUILD, "sbt-global"),
           "-Dsbt.server.autostart=false",
           "-Dperfbench.classpathFile=" + CLASSPATH,
           "compile", "writeClasspath"]
    try:
        r = subprocess.run(cmd, cwd=HERE, stdout=sys.stderr, stderr=sys.stderr,
                           stdin=subprocess.DEVNULL, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0 or not os.path.exists(CLASSPATH):
        fail("build failed")
    with open(STAMP, "w") as fh:
        fh.write(stamp)


def git_sha():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown (not a git checkout)"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    a = ap.parse_args()

    bench_file = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(bench_file):
        fail("no BENCHMARK.json at " + ROOT, 2)
    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala")):
        fail("the program's sources (src/main/scala) are not in " + ROOT, 2)
    with open(bench_file) as fh:
        spec = json.load(fh)

    build()
    for d in ("tmp", "spark-local", "results"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    cmd = [java] + JVM_OPTS + [
        "-Djava.io.tmpdir=" + os.path.join(BUILD, "tmp"),
        "-Dperfbench.sparkLocalDir=" + os.path.join(BUILD, "spark-local"),
        "-cp", open(CLASSPATH).read().strip(), "perfbench.Main",
        "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
        "--trace", a.trace, "--launched-at", repr(time.time())]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                           stdin=subprocess.DEVNULL, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload timed out after %d s" % RUN_TIMEOUT_S)
    result = None
    for line in r.stdout.splitlines():
        if line.startswith("PERFBENCH_RESULT "):
            result = json.loads(line[len("PERFBENCH_RESULT "):])
        else:
            print(line, file=sys.stderr)
    if r.returncode != 0 or result is None:
        fail("workload %s failed (exit %d)" % (a.workload, r.returncode))

    kind = "per_layer" if a.trace == "1" else "end_to_end"
    measured = {m["name"]: m for m in result[kind]}
    declared = {m["name"]: m["unit"] for m in spec[kind]}
    unknown = sorted(set(measured) - set(declared))
    if unknown:
        fail("metrics not declared in BENCHMARK.json: " + ", ".join(unknown))
    metrics = {}
    for name, unit in declared.items():
        m = measured.get(name)
        if m is None and kind == "end_to_end":
            fail("workload %s did not produce %s" % (a.workload, name))
        if m is not None and m["unit"] != unit:
            fail("%s measured in %s, declared in %s" % (name, m["unit"], unit))
        if m is not None and m["value"] is None:
            fail("%s is not a finite number" % name)
        metrics[name] = {"value": m["value"] if m else 0.0, "unit": unit}

    line = {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    record = dict(line, workload=a.workload, seed=a.seed, seconds=a.seconds, trace=int(a.trace),
                  end_to_end=result["end_to_end"], per_layer=result["per_layer"],
                  env=dict(result["env"], git_sha=git_sha(), python=sys.version.split()[0]),
                  samples=result["samples"])
    path = os.path.join(BUILD, "results", "%s-seed%d-trace%s.json" % (a.workload, a.seed, a.trace))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    for name, m in metrics.items():
        print("%s %r %s" % (name, m["value"], m["unit"]))
    print(json.dumps(line))


if __name__ == "__main__":
    main()
