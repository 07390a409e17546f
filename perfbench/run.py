#!/usr/bin/env python3
"""Temporal-butterfly benchmark driver.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run builds the library and the
benchmark from source with sbt (perfbench/build.sbt); later runs reuse that
build while the sources are unchanged. The benchmark itself runs in one JVM
(repro.perfbench.Main) whose last output line is the JSON result. Everything
the run writes stays under the checkout: build output in target/ and
perfbench/target/, sbt state, scratch files, results and traces in
.bench_build/.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
WORK = os.path.join(ROOT, ".bench_build")
STAMP = os.path.join(WORK, "perfbench", "build.stamp")
CLASSPATH = os.path.join(BENCH, "target", "classpath.txt")
WORKLOADS = ("batch-lf", "batch-wt", "stream-lf", "spark-tw")
# what the build reads; for project/ directories only their top-level files
BUILD_INPUTS = ("build.sbt", "project", "src/main", "jobs",
                "perfbench/build.sbt", "perfbench/project", "perfbench/src/main")
DEADLINE_S = 175


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_stamp():
    """Hash of every file the build reads, so a changed source rebuilds."""
    h = hashlib.sha256()
    for rel in BUILD_INPUTS:
        path = os.path.join(ROOT, rel)
        if os.path.isfile(path):
            files = [path]
        elif os.path.basename(path) == "project":
            files = sorted(os.path.join(path, f) for f in os.listdir(path)
                           if os.path.isfile(os.path.join(path, f)))
        else:
            files = sorted(os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def sbt_env():
    """sbt offline, with its global state and temporary files inside the checkout."""
    env = dict(os.environ)
    env["COURSIER_MODE"] = "offline"
    opts = env.get("SBT_OPTS", "").strip()
    if not opts:
        repos = os.path.expanduser("~/.sbt/repositories")
        opts = "-Dsbt.offline=true -Xmx3g"
        if os.path.isfile(repos):
            opts += f" -Dsbt.override.build.repos=true -Dsbt.repository.config={repos}"
    sbt_dir = os.path.join(WORK, "sbt")
    opts += (f" -Dsbt.global.base={sbt_dir}/global -Dsbt.ivy.home={sbt_dir}/ivy"
             f" -Dsbt.server.autostart=false -Djava.io.tmpdir={WORK}/tmp")
    env["SBT_OPTS"] = opts
    return env


def build():
    for rel in ("build.sbt", "src/main/scala", "perfbench/build.sbt"):
        if not os.path.exists(os.path.join(ROOT, rel)):
            fail(f"{rel} not found: run from the root of a full checkout")
    stamp = source_stamp()
    if os.path.isfile(CLASSPATH) and os.path.isfile(STAMP) and open(STAMP).read() == stamp:
        return
    sbt = shutil.which("sbt")
    if sbt is None:
        fail("sbt not found on PATH")
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    started = time.time()
    proc = subprocess.run([sbt, "--batch", "-Dsbt.log.noformat=true", "writeClasspath"],
                          cwd=BENCH, env=sbt_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=700)
    if proc.returncode != 0 or not os.path.isfile(CLASSPATH):
        sys.stderr.write(proc.stdout[-4000:])
        fail("build failed", 3)
    os.makedirs(os.path.dirname(STAMP), exist_ok=True)
    with open(STAMP, "w") as fh:
        fh.write(stamp)
    print(f"perfbench: built in {time.time() - started:.0f} s", file=sys.stderr)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()
    build()

    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    # Spark keeps shuffle files in java.io.tmpdir, inside the checkout, unless this overrides it
    env.pop("SPARK_LOCAL_DIRS", None)
    with open(CLASSPATH) as fh:
        cp = fh.read().strip()
    # A fixed heap keeps the collection rate the same from run to run; with the
    # parallel collector every collection reports the bytes it freed, which
    # the allocation meter relies on; -UsePerfData keeps the JVM from writing
    # its perf-data file outside the checkout.
    cmd = [java, "-Xms3g", "-Xmx3g", "-XX:+UseParallelGC", "-XX:-UsePerfData",
           f"-Djava.io.tmpdir={tmp}", "-cp", cp, "repro.perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        code = proc.wait(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {DEADLINE_S} s", 4)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    sys.exit(code)


if __name__ == "__main__":
    main()
