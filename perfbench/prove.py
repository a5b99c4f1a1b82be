"""Steadiness check: run every workload on several seeds and report, per
end-to-end metric, the median, the quartiles and the spread (distance
between the quartiles as a share of the median), next to the bound in
BENCHMARK.json. Also reports the fingerprints seen for each seed.

    python3 perfbench/prove.py --seeds 1-10 [--workloads construct,linkpred] [--out file.json]

Runs are sequential, untraced, with BENCHMARK.json's run_seconds.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

import build


def seeds(spec: str) -> list:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads")
    ap.add_argument("--out")
    a = ap.parse_args()
    spec = json.loads((build.ROOT / "BENCHMARK.json").read_text())
    names = a.workloads.split(",") if a.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {}
    for w in names:
        values, fingerprints, units, failed, run_s = {}, {}, {}, 0, []
        for s in seeds(a.seeds):
            t0 = time.monotonic()
            p = subprocess.run([sys.executable, str(build.HERE / "run.py"), "--workload", w,
                                "--seed", str(s), "--seconds", str(spec["run_seconds"]),
                                "--trace", "0"], capture_output=True, text=True,
                               cwd=build.ROOT)
            run_s.append(time.monotonic() - t0)
            lines = p.stdout.splitlines()
            if p.returncode != 0 or not lines:
                sys.exit(f"{w} seed {s} failed:\n{p.stderr[-3000:]}")
            res = json.loads(lines[-1])
            failed += res["failed"]
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            fingerprints[s] = next(json.loads(x)["fingerprint"] for x in lines
                                   if x.startswith('{"fingerprint"'))
            units[s] = next(json.loads(x) for x in lines if x.startswith('{"timed_units"'))
            print(f"{w} seed {s}: {json.dumps({k: v['value'] for k, v in res['metrics'].items()})}"
                  f" failed={res['failed']} run={run_s[-1]:.1f}s", file=sys.stderr, flush=True)
        stats = {}
        for k, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            stats[k] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                        "bound": bounds.get(k), "values": vs}
        report[w] = {"runs": len(run_s), "failed_checks": failed,
                     "run_wall_s_median": statistics.median(run_s), "metrics": stats,
                     "fingerprints": fingerprints, "units": units}
    text = json.dumps(report, indent=1)
    if a.out:
        with open(a.out, "w") as f:
            f.write(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
