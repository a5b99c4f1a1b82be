"""OpenBG benchmark: one run of one workload.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. Builds the program and the harness from
source if needed (see build.py), runs the workload in one JVM with the
program's own SparkSession (JobSession.spark), and prints the session
settings, the result fingerprint and, as the last line of stdout, the
result object. Exits non-zero, printing no result, if the build or the
run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

import build

HEAP = "3g"
# The module opens spark-submit passes to a Java 17 driver.
JAVA_OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar")]
RUN_LIMIT_S = 175
FIRST_RUN_LIMIT_S = 880


def die(msg: str, code: int = 2):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)
    sys.exit(code)


def expected_metrics(trace: bool):
    """Metric names BENCHMARK.json requires for this mode, if it is present."""
    spec = build.ROOT / "BENCHMARK.json"
    if not spec.exists():
        return None
    doc = json.loads(spec.read_text())
    return {m["name"] for m in doc["per_layer" if trace else "end_to_end"]}


def check_result(line: str, trace: bool) -> str:
    res = json.loads(line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(res)}")
    if not (isinstance(res["attempted"], int) and res["attempted"] >= 1
            and isinstance(res["failed"], int) and isinstance(res["correct"], bool)):
        raise ValueError("attempted/failed/correct malformed")
    want = expected_metrics(trace)
    if want is not None and set(res["metrics"]) != want:
        raise ValueError(f"metrics differ from BENCHMARK.json: "
                         f"missing {sorted(want - set(res['metrics']))}, "
                         f"extra {sorted(set(res['metrics']) - want)}")
    return line


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["construct", "linkpred"])
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and None in (a.workload, a.seed, a.seconds, a.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if "REPRO_CACHE" in os.environ:
        die("REPRO_CACHE is set: DatasetCache is keyed by name only and would "
            "serve stale datasets; unset it to benchmark")

    t0 = time.monotonic()
    try:
        classes, stamp = build.build()
    except build.BuildError as e:
        die(f"build failed: {e}")
    built_now = time.monotonic() - t0 > 5
    limit = (FIRST_RUN_LIMIT_S if built_now else RUN_LIMIT_S) - (time.monotonic() - t0)

    scratch = build.OUT / "run"
    state = build.OUT / "state" / stamp
    for d in (scratch / "tmp", scratch / "spark-local", state):
        d.mkdir(parents=True, exist_ok=True)
    # -XX:-UsePerfData: no hsperfdata file outside the checkout.
    cmd = [build.java(), f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:-UsePerfData",
           "-XX:+IgnoreUnrecognizedVMOptions",
           *JAVA_OPENS, "-Dio.netty.tryReflectionSetAccessible=true",
           f"-Djava.io.tmpdir={scratch / 'tmp'}",
           f"-Dlog4j2.configurationFile={build.HERE / 'log4j2.properties'}",
           "-cp", f"{classes}{os.pathsep}{build.spark_jars()}/*"]
    if a.self_test:
        cmd += ["repro.perfbench.SelfTest"]
    else:
        cmd += ["repro.perfbench.Main", "--workload", a.workload, "--seed", str(a.seed),
                "--seconds", str(a.seconds), "--trace", str(a.trace), "--state", str(state)]
    env = dict(os.environ, SPARK_LOCAL_DIRS=str(scratch / "spark-local"))

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=build.ROOT)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=max(limit, 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        die(f"run exceeded {limit:.0f} s and was stopped", 3)

    lines = out.splitlines()
    if a.self_test:
        print(out, end="")
        sys.exit(proc.returncode)
    if proc.returncode != 0 or not lines:
        print("\n".join(lines[:-1]), flush=True)
        die(f"run failed with exit code {proc.returncode}", 1)
    try:
        result = check_result(lines[-1], bool(a.trace))
    except ValueError as e:  # json.JSONDecodeError is a ValueError
        print("\n".join(lines[:-1]), flush=True)
        die(f"malformed result: {e}", 1)
    print("\n".join(lines[:-1] + [result]), flush=True)


if __name__ == "__main__":
    main()
