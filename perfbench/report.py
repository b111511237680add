"""Print every end-to-end metric of every workload, with its unit.

    python3 perfbench/report.py [--seed 0] [--seconds S] [--trace]

Runs ``run.py`` once per workload, each in a fresh process so that
``peak_rss_mb`` belongs to that workload alone, and prints ``run_s`` (with
its sample count), ``setup_s``, ``peak_rss_mb``, ``failed_frac`` (with its
base) and ``defect_rel``. ``--trace`` adds a traced run per workload and
prints the per-layer metrics. ``--seconds`` defaults to ``run_seconds`` of
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import ROOT, WORK


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload}: exit {done.returncode}\n{done.stderr[-2000:]}")
    tag = f"{workload}-seed{seed}-trace{trace}"
    return json.loads((WORK / "results" / f"{tag}.json").read_text())


def _line(workload: str, name: str, m: dict) -> str:
    extra = f"  (n={m['samples']})" if "samples" in m else ""
    extra += f"  (base {m['base']})" if "base" in m else ""
    return f"{workload:14s} {name:28s} {m['value']:14.6g} {m['unit']}{extra}"


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    machine = None
    for w in bench["workloads"]:
        record = run_workload(w["name"], args.seed, args.seconds, 0)
        machine = record["machine"]
        for name, m in {**record["metrics"], **record["correctness"]}.items():
            print(_line(w["name"], name, m))
        if args.trace:
            traced = run_workload(w["name"], args.seed, args.seconds, 1)
            for name, m in traced["metrics"].items():
                print(_line(w["name"], name, m))
        for failure in record["failures"]:
            print(f"{w['name']:14s} FAILED {failure['op']}: {failure['problems']}")
    print(json.dumps({"machine": machine}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
