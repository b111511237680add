"""Self-test of the benchmark: tracing must not change results.

    python3 perfbench/selftest.py

Runs a tiny pass (``regular2d`` n=16 and ``onedim``) untraced and traced
and asserts that every output file is byte-identical, that the tracer
wrapped every listed function and restored each one afterwards, and that
the traced pass yields every per-layer metric. It also checks the seeded
geometry: the network shifted by zero cells reproduces the built-in
``regular2d`` outputs byte for byte, and a shifted network passes the
output checks. Exits 1 on the first failed assertion.
"""

from __future__ import annotations

import importlib
import json
import shutil
import sys
import time
from pathlib import Path

import run


def _files(folder: Path) -> dict[str, bytes]:
    return {p.relative_to(folder).as_posix(): p.read_bytes()
            for p in sorted(folder.rglob("*")) if p.is_file()}


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def main() -> int:
    run.pin_threads()
    cli = run.load_program()
    from tracer import UNITS, WRAP, Tracer, layer_metrics
    from workloads import WORKLOADS, Operation, Workload, regular2d_config

    n = 16
    tiny = Workload("tiny", "self-test", [
        Operation("run-regular2d", "run", "regular2d", ["--n", str(n)]),
        Operation("run-onedim", "run", "onedim"),
    ])
    seeded = Workload("seeded", "self-test", [
        Operation("run-shift0", "run", "shift0.json",
                  config=regular2d_config("conductive", n, 0, 0)),
        Operation("run-shift1", "run", "shift1.json",
                  config=regular2d_config("conductive", n, 1, -1)),
    ])
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        _check([w["name"] for w in bench["workloads"]] == list(WORKLOADS),
               "BENCHMARK.json workloads differ from workloads.WORKLOADS")
        _check([m["name"] for m in bench["per_layer"]] == [*UNITS, "failed_frac", "defect_rel"],
               "BENCHMARK.json per_layer differs from tracer.UNITS")

        plain, traced = work / "plain", work / "traced"
        plain.mkdir(parents=True)
        for op in tiny.operations:
            outcome = run.run_operation(cli, op, plain, None)
            _check(not outcome.failed, f"untraced {op.key}: {outcome.problems}")

        modules = {m: importlib.import_module(m) for m in WRAP}
        before = {(m, a): getattr(modules[m], a) for m, names in WRAP.items() for a in names}
        tracer = Tracer()
        with tracer:
            during = {key: getattr(modules[key[0]], key[1]) for key in before}
            first = tracer.begin(0)
            traced.mkdir(parents=True)
            t0 = time.perf_counter()
            for op in tiny.operations:
                outcome = run.run_operation(cli, op, traced, None)
                _check(not outcome.failed, f"traced {op.key}: {outcome.problems}")
            metrics = layer_metrics(tracer.spans, first, time.perf_counter() - t0)
        unwrapped = [f"{m}.{a}" for (m, a), fn in before.items() if during[(m, a)] is fn]
        _check(not unwrapped, f"not wrapped while tracing: {unwrapped}")
        left = [f"{m}.{a}" for (m, a), fn in before.items()
                if getattr(modules[m], a) is not fn]
        _check(not left, f"not restored after tracing: {left}")

        a, b = _files(plain), _files(traced)
        _check(sorted(a) == sorted(b), f"file sets differ: {sorted(a)} vs {sorted(b)}")
        differ = [name for name in a if a[name] != b[name]]
        _check(not differ, f"tracing changed outputs: {differ}")
        _check(set(metrics) == set(UNITS), f"metric names differ: {set(metrics) ^ set(UNITS)}")
        _check(metrics["solver.refine_rounds"] > 0 and metrics["trace.overhead_s"] > 0,
               f"traced pass recorded no refinement or no overhead: {metrics}")
        broken = [s.name for s in tracer.spans if "count_error" in s.attrs]
        _check(not broken, f"counts could not be read from: {broken}")
        names = {s.name for s in tracer.spans}
        _check({"cli.main", "solver.solve_system", "solver.solve", "geometry.split_mesh",
                "postprocess.write_solution_csv"} <= names, f"spans missing: {names}")

        run.prepare(seeded, work / "seeded")
        for op in seeded.operations:
            outcome = run.run_operation(cli, op, work / "seeded", None)
            _check(not outcome.failed, f"{op.key}: {outcome.problems}")
        builtin = _files(plain / "run-regular2d")
        shift0 = _files(work / "seeded" / "run-shift0")
        tables = [k for k in builtin if k.startswith(("profile_", "fracture_"))]
        _check(len(tables) == 8, f"expected 2 profile and 6 fracture CSVs, got {tables}")
        differ = [k for k in tables if builtin[k] != shift0.get(k)]
        _check(not differ, f"zero-shift config differs from the built-in: {differ}")
        shift1 = _files(work / "seeded" / "run-shift1")
        _check(builtin["fracture_0.csv"] != shift1["fracture_0.csv"],
               "a shifted network gave the built-in fracture output")
    except AssertionError as exc:
        print(f"selftest: FAILED: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
