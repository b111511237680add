"""Span tracer that wraps the program's public functions from outside.

Python binds ``from .x import y`` into the caller's namespace, so a function
is wrapped under every name its callers resolve it by (``WRAP``), not only
in its defining module. Each wrapped call becomes a span with its name,
start, end and parent, plus counts taken from its arguments and return
value. Spans stay in memory; ``Tracer.dump`` writes them out at the end.

Span names are ``<layer>.<function>``, the layer being the module that
defines the function (``scenarios.split_mesh`` is ``geometry.split_mesh``).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Module -> names wrapped in that module's namespace.
WRAP = {
    "fracflow.scenarios": ("build_structured_quad", "build_interval", "split_mesh",
                           "assemble", "solve_system", "boundary_flux",
                           "sample_profile", "fracture_pressure", "fracture_jump",
                           "solve_equidim_2d"),
    "fracflow.reference": ("split_mesh", "assemble", "solve"),
    "fracflow.solver": ("solve", "cg_solve", "cholesky_solve"),
    "fracflow.cli": ("main", "run_scenario", "compare_scenario",
                     "write_solution_csv", "write_profile_csv", "write_fracture_csv"),
}


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    trace: int                # pass the span belongs to
    end: float = 0.0
    overhead: float = 0.0     # tracer bookkeeping in this wrapper, outside [start, end]
    failed: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _residual_norm(system, x) -> float:
    """2-norm of the term-by-term residual that ``solve_system`` refines on:
    all loads minus the operator applied term by term, with Dirichlet rows
    replaced by their value mismatch."""
    r = system.residual_raw(x) + (system.rhs_raw - system.rhs_body)
    for d, g in system.dirichlet_dofs.items():
        r[d] = g - x[d]
    return float(np.linalg.norm(r))


def compare_margin(report: dict) -> float:
    """Largest measured value / threshold over a compare report's gates."""
    worst = 0.0
    for name, limit in report["thresholds"].items():
        value = report["metrics"][name]
        values = value if isinstance(value, list) else [value]
        worst = max(worst, max(abs(float(v)) for v in values) / float(limit))
    return worst


def _matrix_counts(A) -> dict:
    return {"n": int(A.shape[0]), "nnz": int(A.nnz),
            "index_bytes": int(A.indices.itemsize) if hasattr(A, "indices") else 4}


def _counts(name: str, args: tuple, kwargs: dict, result) -> dict:
    """Counts of one call, read from its arguments and return value."""
    fn = name.split(".", 1)[1]
    if fn == "split_mesh":
        return {"dofs": result.n_dofs, "interface_edges": len(result.interface_edges)}
    if fn == "assemble":
        return {"nnz": int(result.matrix.nnz)}
    if fn in ("solve", "cg_solve", "cholesky_solve"):
        b = args[1] if len(args) > 1 else kwargs["b"]
        counts = {"iterations": int(result[1].iterations),
                  "rhs_norm": float(np.linalg.norm(b)),
                  "method": result[1].method}
        if hasattr(args[0], "nnz"):
            counts.update(_matrix_counts(args[0]))
        return counts
    if fn == "solve_system":
        system = args[0] if args else kwargs["system"]
        if system.matrix_domain is None:
            return {"final_residual_norm": None}
        return {"final_residual_norm": _residual_norm(system, result[0])}
    if fn == "sample_profile":
        return {"points": len(result)}
    if fn.startswith("write_") and fn.endswith("_csv"):
        path = args[0] if args else kwargs["path"]
        return {"bytes": os.path.getsize(path)}
    if fn == "solve_equidim_2d":
        return {"dofs": result.split.n_dofs}
    if fn == "compare_scenario":
        return {"margin": compare_margin(result)}
    return {}


class Tracer:
    """Installs span wrappers, records spans, restores the originals."""

    def __init__(self):
        self.spans: list[Span] = []
        self.trace_id = 0
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for module_name, names in WRAP.items():
            module = importlib.import_module(module_name)
            for attr in names:
                fn = getattr(module, attr)
                layer = fn.__module__.rsplit(".", 1)[-1]
                self._originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(f"{layer}.{fn.__name__}", fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, 0.0, parent, tracer.trace_id)
            tracer.spans.append(span)
            tracer._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.end = time.perf_counter()
                span.failed = True
                tracer._stack.pop()
                span.overhead = (time.perf_counter() - entered) - span.duration
                raise
            span.end = time.perf_counter()
            tracer._stack.pop()
            try:
                span.attrs = _counts(name, args, kwargs, result)
            except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
                # A changed return type loses this span's counts, not the run.
                span.attrs = {"count_error": repr(exc)}
            span.overhead = (time.perf_counter() - entered) - span.duration
            return result

        return traced

    # -- output ------------------------------------------------------------
    def begin(self, trace_id: int) -> int:
        """Tag the spans that follow with ``trace_id``; returns their first index."""
        self.trace_id = trace_id
        return len(self.spans)

    def dump(self, path: Path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent, "trace": s.trace,
                                     "overhead": s.overhead, "failed": s.failed,
                                     "attrs": s.attrs}) + "\n")


# --- per-layer metrics ----------------------------------------------------

# Every per-layer metric ``layer_metrics`` reports, with its unit.
UNITS = {
    "geometry.mesh_s": "s", "geometry.split_s": "s",
    "geometry.dofs": "count", "geometry.interface_edges": "count",
    "assembly.assemble_s": "s", "assembly.calls": "count", "assembly.nnz": "count",
    "solver.first_s": "s", "solver.first_iterations": "count",
    "solver.refine_s": "s", "solver.refine_iterations": "count",
    "solver.refine_rounds": "count", "solver.refine_useful_frac": "ratio",
    "solver.cg_s": "s", "solver.cg_calls": "count",
    "solver.cg_gflop_computed": "Gflop", "solver.cg_gbyte_computed": "GB",
    "solver.failures": "count", "solver.dense_s": "s", "solver.dense_calls": "count",
    "postprocess.flux_s": "s", "postprocess.sample_s": "s",
    "postprocess.sample_points": "count", "postprocess.fracture_s": "s",
    "postprocess.write_s": "s", "postprocess.write_mb": "MB",
    "reference.equidim_s": "s", "reference.equidim_calls": "count",
    "reference.equidim_dofs": "count", "reference.compare_margin": "ratio",
    "scenarios.self_s": "s", "cli.self_s": "s",
    "trace.overhead_s": "s", "trace.unattributed_s": "s",
}

# Computed CG kernel counts per iteration: one CSR matvec (2 nnz flops;
# nnz values + nnz column indices + n+1 row pointers read, p read, Ap
# written) and the vector updates of cg_solve (two dots, two axpys, the
# Jacobi scaling and the direction update: 11 n flops, 17 n float64
# reads/writes counting numpy temporaries). Cache effects are ignored.
def cg_flops(n: int, nnz: int, iterations: int) -> float:
    return (iterations + 1) * (2.0 * nnz + 11.0 * n)


def cg_bytes(n: int, nnz: int, iterations: int, index_bytes: int) -> float:
    matvec = nnz * (8 + index_bytes) + (n + 1) * index_bytes + 2 * 8 * n
    return (iterations + 1) * (matvec + 17 * 8 * n)


def _self_time(spans: list[Span], index: int, children: dict[int, list[int]]) -> float:
    s = spans[index]
    covered = sum(spans[c].duration + spans[c].overhead for c in children.get(index, ()))
    return s.duration - covered


def layer_metrics(spans: list[Span], first: int, wall: float) -> dict[str, float]:
    """Per-layer metrics of the spans recorded since ``first`` (one pass)."""
    part = spans[first:]
    local = range(first, len(spans))
    children: dict[int, list[int]] = {}
    for i in local:
        p = spans[i].parent
        if p is not None:
            children.setdefault(p, []).append(i)

    def total(*names: str) -> float:
        return sum(s.duration for s in part if s.name in names)

    def count(*names: str) -> int:
        return sum(1 for s in part if s.name in names)

    def attr_sum(name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in part if s.name == name)

    m: dict[str, float] = {}
    m["geometry.mesh_s"] = total("geometry.build_structured_quad", "geometry.build_interval")
    m["geometry.split_s"] = total("geometry.split_mesh")
    m["geometry.dofs"] = attr_sum("geometry.split_mesh", "dofs")
    m["geometry.interface_edges"] = attr_sum("geometry.split_mesh", "interface_edges")

    m["assembly.assemble_s"] = total("assembly.assemble")
    m["assembly.calls"] = count("assembly.assemble")
    m["assembly.nnz"] = attr_sum("assembly.assemble", "nnz")

    first_solves, refine_solves = [], []
    useful = rounds = 0
    for i in local:
        if spans[i].name != "solver.solve_system":
            continue
        solves = [spans[c] for c in children.get(i, ()) if spans[c].name == "solver.solve"]
        first_solves += solves[:1]
        refine_solves += solves[1:]
        norms = [s.attrs.get("rhs_norm") for s in solves[1:]]
        norms.append(spans[i].attrs.get("final_residual_norm"))
        for before, after in zip(norms[:-1], norms[1:]):
            rounds += 1
            useful += int(after is not None and before is not None and after < before)
    m["solver.first_s"] = sum(s.duration for s in first_solves)
    m["solver.first_iterations"] = sum(s.attrs.get("iterations", 0) for s in first_solves)
    m["solver.refine_s"] = sum(s.duration for s in refine_solves)
    m["solver.refine_iterations"] = sum(s.attrs.get("iterations", 0) for s in refine_solves)
    m["solver.refine_rounds"] = rounds
    m["solver.refine_useful_frac"] = useful / rounds if rounds else 0.0

    cg = [s for s in part if s.name == "solver.cg_solve" and not s.failed]
    m["solver.cg_s"] = total("solver.cg_solve")
    m["solver.cg_calls"] = count("solver.cg_solve")
    m["solver.cg_gflop_computed"] = sum(
        cg_flops(s.attrs["n"], s.attrs["nnz"], s.attrs["iterations"]) for s in cg) / 1e9
    m["solver.cg_gbyte_computed"] = sum(
        cg_bytes(s.attrs["n"], s.attrs["nnz"], s.attrs["iterations"],
                 s.attrs["index_bytes"]) for s in cg) / 1e9
    m["solver.failures"] = sum(1 for s in part if s.failed and s.name in
                               ("solver.cg_solve", "solver.cholesky_solve"))
    m["solver.dense_s"] = total("solver.cholesky_solve")
    m["solver.dense_calls"] = count("solver.cholesky_solve")

    m["postprocess.flux_s"] = total("postprocess.boundary_flux")
    m["postprocess.sample_s"] = total("postprocess.sample_profile")
    m["postprocess.sample_points"] = attr_sum("postprocess.sample_profile", "points")
    m["postprocess.fracture_s"] = total("postprocess.fracture_pressure",
                                        "postprocess.fracture_jump")
    writes = ("postprocess.write_solution_csv", "postprocess.write_profile_csv",
              "postprocess.write_fracture_csv")
    m["postprocess.write_s"] = total(*writes)
    m["postprocess.write_mb"] = sum(s.attrs.get("bytes", 0) for s in part
                                    if s.name in writes) / 1e6

    m["reference.equidim_s"] = total("reference.solve_equidim_2d")
    m["reference.equidim_calls"] = count("reference.solve_equidim_2d")
    m["reference.equidim_dofs"] = attr_sum("reference.solve_equidim_2d", "dofs")
    m["reference.compare_margin"] = max(
        [s.attrs.get("margin", 0.0) for s in part if s.name == "scenarios.compare_scenario"],
        default=0.0)

    m["scenarios.self_s"] = sum(_self_time(spans, i, children) for i in local
                                if spans[i].name.startswith("scenarios."))
    m["cli.self_s"] = sum(_self_time(spans, i, children) for i in local
                          if spans[i].name.startswith("cli."))
    m["trace.overhead_s"] = sum(s.overhead for s in part)
    top = [s for s in part if s.parent is None]
    m["trace.unattributed_s"] = wall - sum(s.duration + s.overhead for s in top)
    return {k: float(v) for k, v in m.items()}
