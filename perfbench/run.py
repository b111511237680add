"""fracflow benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload conductive256 --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` folder and driven in process through ``fracflow.cli.main``, one
pass after another until ``--seconds`` have passed (at least one pass).
Every operation's outputs are checked (see ``workloads.py``).

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics ``run_s`` (median pass time, CLI calls only),
``setup_s`` (median time of fresh interpreters to finish ``import
fracflow``) and ``peak_rss_mb`` (``ru_maxrss`` of this process). With
``--trace 1`` the program's public functions are wrapped (``tracer.py``)
and the line holds the per-layer metrics, each the median over passes.
The full record, with sample counts, failures and the machine set-up, goes
to ``.perfbench_work/results/``. Exits 2 without a result when the program
cannot be imported from the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 9
IMPORT_PROBE = "import fracflow, time; print(repr(time.time()))"
# Pinned before numpy loads: BLAS threads move timings and CG iterates.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """Import ``fracflow.cli`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import fracflow
        from fracflow import cli
    except ImportError as exc:
        raise ProgramMissing(f"cannot import fracflow from {SRC}: {exc}") from exc
    where = Path(fracflow.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ProgramMissing(f"fracflow was imported from {where}, not from {SRC}")
    return cli


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(repeats: int = SETUP_REPEATS) -> list[float]:
    """Seconds from launching a fresh interpreter until ``import fracflow``
    is done, read off the wall clock the child prints right after the
    import, so interpreter shutdown is not counted."""
    samples = []
    for _ in range(repeats):
        launched = time.time()
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                              env=child_env(), check=True, capture_output=True,
                              text=True, timeout=60)
        samples.append(float(done.stdout) - launched)
    return samples


def _tool_output(argv: list[str]) -> str:
    try:
        return subprocess.run(argv, capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return ""


def machine_record() -> dict:
    import numpy as np
    import scipy

    l3 = next((line.split(":", 1)[1].strip() for line in _tool_output(["lscpu"]).splitlines()
               if line.startswith("L3 cache")), None)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "l3_cache": l3 or _tool_output(["getconf", "LEVEL3_CACHE_SIZE"]).strip() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "machine": platform.machine(),
    }


def prepare(workload, work: Path) -> None:
    """Write the generated config files the operations read."""
    work.mkdir(parents=True, exist_ok=True)
    for op in workload.operations:
        if op.config is not None:
            path = work / op.target
            path.write_text(json.dumps(op.config, indent=1))
            op.target = str(path)


def run_operation(cli, op, work: Path, goldens):
    from workloads import Outcome, check_operation

    out = work / op.key
    shutil.rmtree(out, ignore_errors=True)
    log = io.StringIO()
    crash = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            code = cli.main(op.argv(out))
    except SystemExit as exc:          # argparse rejects its input this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:                  # a crash is one failed operation, not the end
        code, crash = -1, traceback.format_exc(limit=4)
    seconds = time.perf_counter() - t0
    problems, defect_rel = check_operation(op, out, code, goldens)
    if crash:
        problems.append(crash)
    elif code != 0:
        problems.append(log.getvalue().strip()[-500:])
    return Outcome(op.key, seconds, problems, defect_rel)


def run_pass(cli, workload, work: Path, goldens) -> tuple[float, list]:
    outcomes = [run_operation(cli, op, work, goldens) for op in workload.operations]
    return sum(o.seconds for o in outcomes), outcomes


def measure(cli, workload, work: Path, goldens, seconds: float, tracer=None):
    """Closed loop of passes; returns per-pass times, outcomes and layer metrics."""
    from tracer import layer_metrics

    outcomes = []
    if workload.warmup:
        if tracer:
            tracer.begin(-1)
        outcomes += run_pass(cli, workload, work, goldens)[1]
    pass_times, layers = [], []
    started = time.perf_counter()
    while not pass_times or time.perf_counter() - started < seconds:
        first = tracer.begin(len(pass_times)) if tracer else 0
        wall0 = time.perf_counter()
        pass_s, pass_outcomes = run_pass(cli, workload, work, goldens)
        wall = time.perf_counter() - wall0
        pass_times.append(pass_s)
        outcomes += pass_outcomes
        if tracer:
            layers.append(layer_metrics(tracer.spans, first, wall))
    return pass_times, outcomes, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_threads()
    try:
        cli = load_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from tracer import UNITS, Tracer
    from workloads import WORKLOADS, Goldens, make_workload

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"available: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = make_workload(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work, results = WORK / tag, WORK / "results"
    shutil.rmtree(work, ignore_errors=True)
    results.mkdir(parents=True, exist_ok=True)
    prepare(workload, work)
    goldens = Goldens()

    setup = measure_setup() if args.trace == 0 else []
    tracer = Tracer() if args.trace else None
    try:
        if tracer:
            with tracer:
                pass_times, outcomes, layers = measure(cli, workload, work, goldens,
                                                       args.seconds, tracer)
            tracer.dump(results / f"{tag}.spans.jsonl")
        else:
            pass_times, outcomes, layers = measure(cli, workload, work, goldens,
                                                   args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = sum(o.failed for o in outcomes)
    defects = [o.defect_rel for o in outcomes if o.defect_rel is not None]
    correctness = {
        "failed_frac": {"value": failed / len(outcomes), "unit": "ratio",
                        "base": len(outcomes)},
        "defect_rel": {"value": max(defects, default=0.0), "unit": "ratio"},
    }
    if args.trace == 0:
        metrics = {
            "run_s": {"value": statistics.median(pass_times), "unit": "s",
                      "samples": len(pass_times)},
            "setup_s": {"value": statistics.median(setup), "unit": "s",
                        "samples": len(setup)},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        metrics = {name: {"value": statistics.median(p[name] for p in layers),
                          "unit": unit} for name, unit in UNITS.items()}
        metrics.update({k: dict(v) for k, v in correctness.items()})
        metrics["failed_frac"].pop("base")

    record = {
        "workload": args.workload, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "operations": [op.key for op in workload.operations],
        "pass_s": pass_times, "setup_s": setup, "metrics": metrics,
        "correctness": correctness, "per_pass_layers": layers,
        "failures": [{"op": o.key, "problems": o.problems}
                     for o in outcomes if o.failed][:20],
        "machine": machine_record(),
    }
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1))

    for failure in record["failures"]:
        print(f"FAILED {failure['op']}: {'; '.join(failure['problems'])}", file=sys.stderr)
    for name, m in {**metrics, **correctness}.items():
        extra = f" (n={m['samples']})" if "samples" in m else ""
        extra += f" (base {m['base']})" if "base" in m else ""
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}{extra}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
