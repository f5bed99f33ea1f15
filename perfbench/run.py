#!/usr/bin/env python3
"""Runs one GeoBlocks benchmark run from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is compiled with sbt from the checkout's own sources (the
build is cached under perfbench/target and reused while no source file
changes), then one JVM runs the workload. The JVM's standard output is
passed through; its last line is the result as one JSON object. The JVM's
log goes to perfbench/out/. See perfbench/README.md for the workloads and
metrics.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MAIN_SOURCES = ROOT / "src" / "main" / "scala"
STAMP = OUT / "build.stamp"

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
HEAP = "3g"
# The parallel collector gives steadier query and build times than G1 on a
# shared 4-vCPU machine: no concurrent marking competes with the client.
GC = "-XX:+UseParallelGC"

# Spark needs these module openings on Java 17+.
ADD_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio", "java.base/java.util",
    "java.base/java.util.concurrent", "java.base/java.util.concurrent.atomic",
    "java.base/jdk.internal.ref", "java.base/sun.nio.ch", "java.base/sun.nio.cs",
    "java.base/sun.security.action", "java.base/sun.util.calendar",
]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    h = hashlib.sha256()
    files = [HERE / "build.sbt", HERE / "project" / "build.properties"]
    for d in (MAIN_SOURCES, HERE / "src"):
        files += sorted(p for p in d.rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def classpath():
    """The runtime classpath, compiling first if any source changed."""
    digest = source_digest()
    if STAMP.is_file():
        stamped, _, cp = STAMP.read_text().partition("\n")
        if stamped == digest and cp.strip():
            return cp.strip()
    # sbt's state and scratch files stay inside the checkout.
    sbt_home = OUT / "sbt"
    tmp = sbt_home / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = [
        "sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
        f"-Dsbt.global.base={sbt_home / 'global'}", f"-Dsbt.boot.directory={sbt_home / 'boot'}",
        f"-Dsbt.ivy.home={sbt_home / 'ivy'}", f"-Djava.io.tmpdir={tmp}", f"-Djna.tmpdir={tmp}",
        f"-Dswoval.tmpdir={tmp}", "export Runtime/fullClasspath",
    ]
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    env["TMPDIR"] = str(tmp)
    env["JAVA_TOOL_OPTIONS"] = (env.get("JAVA_TOOL_OPTIONS", "") + " -XX:-UsePerfData").strip()
    try:
        proc = subprocess.run(cmd, cwd=HERE, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out", 3)
    lines = [l.strip() for l in proc.stdout.splitlines() if l.strip()]
    cp = lines[-1] if lines else ""
    if proc.returncode != 0 or cp.startswith("[") or "classes" not in cp:
        errors = [l for l in proc.stdout.splitlines() if l.startswith("[error]")]
        sys.stderr.write("\n".join(errors[:60]) if errors else proc.stdout[-3000:])
        fail("build failed", 3)
    STAMP.write_text(f"{digest}\n{cp}\n")
    return cp


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["neighborhoods", "large-rects", "skewed-cells"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    if not MAIN_SOURCES.is_dir():
        fail(f"no program sources at {MAIN_SOURCES.relative_to(ROOT)}; run from a full checkout")
    spark_home = os.environ.get("SPARK_HOME")
    if not spark_home or not (Path(spark_home) / "jars").is_dir():
        fail("SPARK_HOME must point at a Spark distribution with a jars/ directory")
    for tool in ("sbt", "java"):
        if shutil.which(tool) is None:
            fail(f"{tool} not found on PATH")

    OUT.mkdir(exist_ok=True)
    cp = classpath()
    tmp = OUT / "tmp"
    tmp.mkdir(exist_ok=True)
    log = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.log"
    cmd = ["java", GC, "-XX:-UsePerfData", f"-Xms{HEAP}", f"-Xmx{HEAP}", f"-Djava.io.tmpdir={tmp}",
           f"-Dperfbench.workdir={OUT}"]
    cmd += [f"--add-opens={m}=ALL-UNNAMED" for m in ADD_OPENS]
    cmd += ["-cp", cp, "repro.perfbench.Main", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    env = dict(os.environ)
    env.setdefault("SPARK_LOCAL_IP", "127.0.0.1")  # local mode binds to loopback
    with open(log, "w") as err:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err,
                                  text=True, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"run timed out after {RUN_TIMEOUT_S} s; log in {log.relative_to(ROOT)}", 3)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        print(f"perfbench: run failed (exit {proc.returncode}); log in {log.relative_to(ROOT)}",
              file=sys.stderr)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
