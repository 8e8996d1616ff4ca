#!/usr/bin/env python3
"""Run one benchmark workload in a fresh JVM and print its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run builds the benchmark package
(perfbench/build.sbt, which compiles against the repository's root project)
with sbt and caches the classpath under .bench_build/; later runs start the
JVM directly. The last line of standard output is the JSON result.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
# Inputs of the build: a change to any of them rebuilds.
SOURCES = ["build.sbt", "project", "src/main", "jobs",
           "perfbench/build.sbt", "perfbench/project", "perfbench/src/main"]
# Fixed heap and collector, so collection points repeat from run to run;
# no perf-data file outside the checkout.
JVM_OPTS = ["-Xms2g", "-Xmx2g", "-Xmn768m", "-XX:+UseParallelGC",
            "-XX:-UseAdaptiveSizePolicy", "-Xss64m", "-XX:-UsePerfData"]
# The module opens spark-submit passes on JDK 17+.
OPENS = ["java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
         "java.base/java.io", "java.base/java.net", "java.base/java.nio",
         "java.base/java.util", "java.base/java.util.concurrent",
         "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
         "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
         "java.base/sun.util.calendar"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_stamp():
    h = hashlib.sha256()
    for top in SOURCES:
        if not os.path.exists(top):
            continue
        if os.path.isfile(top):
            paths = [top]
        else:
            paths = []
            for d, dirs, files in os.walk(top):
                dirs[:] = sorted(x for x in dirs if x not in ("target", "project"))
                paths += [os.path.join(d, f) for f in sorted(files)]
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def build():
    """Compile with sbt once per source state; return the runtime classpath."""
    stamp_file = os.path.join(BUILD_DIR, "classpath.json")
    stamp = source_stamp()
    if os.path.exists(stamp_file):
        with open(stamp_file) as f:
            cached = json.load(f)
        if cached.get("stamp") == stamp:
            return cached["classpath"]
    os.makedirs(BUILD_DIR, exist_ok=True)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")  # dependencies come from the local cache
    env["SBT_OPTS"] = " ".join(filter(None, [
        env.get("SBT_OPTS", ""),
        "-Dsbt.offline=true",
        "-Dsbt.global.base=" + os.path.abspath(os.path.join(BUILD_DIR, "sbt-global")),
        "-Djava.io.tmpdir=" + os.path.abspath(os.path.join(BUILD_DIR, "tmp")),
        "-XX:-UsePerfData",
    ]))
    os.makedirs(os.path.join(BUILD_DIR, "tmp"), exist_ok=True)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile",
           "export perfbench/Runtime/fullClasspath"]
    try:
        out = subprocess.run(cmd, cwd="perfbench", env=env, stdout=subprocess.PIPE,
                             stdin=subprocess.DEVNULL, text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if out.returncode != 0:
        sys.stderr.write(out.stdout)
        fail(f"build failed with exit code {out.returncode}")
    lines = [l for l in out.stdout.splitlines() if not l.startswith("[") and os.pathsep in l]
    if not lines:
        fail("build printed no classpath")
    classpath = lines[-1].strip()
    with open(stamp_file, "w") as f:
        json.dump({"stamp": stamp, "classpath": classpath}, f)
    return classpath


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    if not os.path.isdir("src/main/scala/repro") or not os.path.isfile("build.sbt"):
        fail("run from the root of a checkout of the repository")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    # name -> unit, in BENCHMARK.json's order
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    absent = set()
    if args.trace:
        with open("perfbench/predictions.json") as f:
            absent = set(json.load(f)["not_measured"][args.workload])

    classpath = build()
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = (["java"] + JVM_OPTS + [f"--add-opens={p}=ALL-UNNAMED" for p in OPENS] +
           ["-Djava.io.tmpdir=" + tmp, "-cp", classpath, "perfbench.Main",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", BUILD_DIR])
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = out.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(out.stdout)
        fail(f"no result (exit code {out.returncode})")
    metrics = result["metrics"]
    unknown = sorted(set(metrics) - set(units))
    if unknown:
        sys.stderr.write(out.stdout)
        fail(f"metrics {unknown} are not in BENCHMARK.json")
    # A layer the workload does not run reports 0; any other gap, or a
    # measured metric listed as not measured, makes the run incorrect.
    problems = ([f"{n} was measured but is listed as not measured" for n in units
                 if n in absent and n in metrics] +
                [f"{n} was not measured" for n in units if n not in absent and n not in metrics])
    for n in absent - set(metrics):
        metrics[n] = {"value": 0, "unit": units[n]}
    if problems:
        result["correct"] = False
    result["metrics"] = {n: metrics[n] for n in units if n in metrics}
    print("\n".join(lines[:-1] + [f"# INCOMPLETE {p}" for p in problems] + [json.dumps(result)]))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
