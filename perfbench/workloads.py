"""Workload definitions, seeded inputs and output checks of the benchmark.

A workload is a list of CLI operations (``fracflow run`` / ``compare``)
that make up one pass. The seed decides the inputs: seed 0 runs the
built-in geometry in the canonical order; any other seed shifts the
six-segment ``regular2d`` network by whole cells (handed to the program
through the ``fractures`` config key) and shuffles the order of the calls.

Every operation is checked after it returns. An operation fails on a
nonzero exit code, ``converged`` false, ``mass_balance_defect`` above
``1e-8 * inflow`` (acceptance criterion 4), a ``compare`` that does not
pass, or profile/fracture CSVs that differ from the golden values.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# The CLI's default solver tolerance; every operation runs at it.
SOLVER_TOL = 1e-10
# Golden tolerance on pressures and jumps: 1e3 * SOLVER_TOL times
# the larger of 1 and the largest golden magnitude in the file. Two exact
# solvers (dense Cholesky, sparse LU) already disagree by up to 8.2e-10 =
# 8.2 * tol on conductive regular2d, because the kf/eps = 1e8 penalty
# amplifies roundoff; CG at tol differs from LU by 4.2e-10. A factor 1e3
# leaves >100x margin over that, while a change of the discretisation
# itself (O(h^2), about 4e-6 at n=512) is still caught.
GOLDEN_ATOL = 1e3 * SOLVER_TOL
# Coordinates and arc lengths come from the geometry alone.
GEOMETRY_ATOL = 1e-12
# Acceptance criterion 4: |sum of boundary fluxes| <= 1e-8 * inflow.
DEFECT_GATE = 1e-8

GOLDEN_FILE = Path(__file__).resolve().parent / "golden" / "seed0.npz"

# Benchmark 2 ("regular network") of Flemisch et al., Adv. Water Resour.
# 111 (2018): six orthogonal segments in the unit square. The same
# coordinates are the program's built-in default for regular2d.
REGULAR2D_SEGMENTS = (
    ((0.0, 0.5), (1.0, 0.5)),
    ((0.5, 0.0), (0.5, 1.0)),
    ((0.75, 0.5), (0.75, 1.0)),
    ((0.5, 0.75), (1.0, 0.75)),
    ((0.625, 0.5), (0.625, 0.75)),
    ((0.5, 0.625), (0.75, 0.625)),
)
REGULAR2D_EPS = 1e-4
REGULAR2D_KF = {"conductive": 1e4, "blocking": 1e-4}


def shifted_segments(n: int, kx: int, ky: int) -> list[list[list[float]]]:
    """The regular2d network moved by (kx, ky) cells of an n x n grid.

    An endpoint on the domain boundary is first pushed outward along its
    segment and the moved segment is clipped back to the unit square, so
    boundary contacts survive the shift; interior endpoints move with the
    whole network, which keeps crossings and T-junctions. Coordinates stay
    on grid lines (multiples of 1/n).
    """
    out = []
    for a, b in REGULAR2D_SEGMENTS:
        path = []
        for (x, y), (ox, oy) in ((a, b), (b, a)):
            cx, cy = round(x * n), round(y * n)
            if cx in (0, n) and ox != x:
                cx = -n if cx == 0 else 2 * n
            if cy in (0, n) and oy != y:
                cy = -n if cy == 0 else 2 * n
            path.append([min(n, max(0, cx + kx)) / n, min(n, max(0, cy + ky)) / n])
        out.append(path)
    return out


def seed_shift(seed: int, n: int) -> tuple[int, int]:
    """Whole-cell shift for a seed: (0, 0) at seed 0, else up to n/32 cells."""
    if seed == 0:
        return 0, 0
    reach = max(1, n // 32)
    rng = random.Random(f"shift-{seed}-{n}")
    return rng.randint(-reach, reach), rng.randint(-reach, reach)


@dataclass
class Operation:
    """One CLI call of a pass and what its outputs are checked against."""

    key: str                  # stable id; names the output dir and golden entries
    command: str              # "run" or "compare"
    target: str               # scenario name or config file
    flags: list[str] = field(default_factory=list)
    config: dict | None = None
    golden: bool = False      # inputs equal seed 0's, so goldens apply

    def argv(self, out: Path) -> list[str]:
        return [self.command, self.target, *self.flags, "--out", str(out)]


@dataclass
class Workload:
    name: str
    why: str
    operations: list[Operation]
    warmup: bool = False      # run one untimed pass first (cheap workloads only)


def regular2d_config(variant: str, n: int, kx: int, ky: int) -> dict:
    """Config of ``regular2d`` with its network shifted by (kx, ky) cells."""
    kf = REGULAR2D_KF[variant]
    return {"scenario": "regular2d", "variant": variant, "n": n,
            "fractures": [{"path": p, "aperture": REGULAR2D_EPS, "mobility": kf}
                          for p in shifted_segments(n, kx, ky)]}


def _regular2d_op(seed: int, variant: str, n: int, explicit: bool) -> Operation:
    """``run regular2d`` at a seed; a config file carries a shifted network."""
    key = f"run-regular2d-{variant}-{n}"
    flags = ["--variant", variant, "--n", str(n)] if explicit else []
    if seed == 0:
        return Operation(key, "run", "regular2d", flags, golden=True)
    config = regular2d_config(variant, n, *seed_shift(seed, n))
    return Operation(key, "run", f"{key}.json", config=config)


# Every built-in at its default n: `run`, then `compare` against each oracle.
_SUITE = (
    ("run", "onedim", []),
    ("compare", "onedim", []),
    ("run", "single_vertical", []),
    ("compare", "single_vertical", ["--oracle", "equidim"]),
    ("compare", "single_vertical", ["--oracle", "analytic"]),
    ("run", "patch_eps_sweep", []),
    ("compare", "patch_eps_sweep", []),
    ("run", "wentzell_tangential", []),
    ("compare", "wentzell_tangential", []),
    ("run", "ellipse2d", []),
    ("compare", "ellipse2d", []),
)


def _suite_ops(seed: int) -> list[Operation]:
    ops = [_regular2d_op(seed, "conductive", 32, explicit=False)]
    for command, target, flags in _SUITE:
        key = "-".join([command, target, *flags[1:]])
        ops.append(Operation(key, command, target, list(flags),
                             golden=command == "run"))
    if seed != 0:
        random.Random(f"order-{seed}").shuffle(ops)
    return ops


WHY = {
    "conductive256": "north-star case: kf/eps=1e8 jump penalty makes the CG "
                     "solve and its refinement ~97% of the pass; mesh, "
                     "assembly and output are under 2%",
    "blocking512": "same geometry and code without the ill-conditioning, at 4x "
                   "the mesh: mesh, assembly and output loops and memory show; "
                   "an interface preconditioner should not move it",
    "builtin_suite": "every built-in run and compared against its oracles: "
                     "many small solves (dense path, per-call set-up), the 1D "
                     "path and the band-meshed references",
}


def make_workload(name: str, seed: int) -> Workload:
    if name == "conductive256":
        ops = [_regular2d_op(seed, "conductive", 256, explicit=True)]
        return Workload(name, WHY[name], ops)
    if name == "blocking512":
        ops = [_regular2d_op(seed, "blocking", 512, explicit=True)]
        return Workload(name, WHY[name], ops)
    if name == "builtin_suite":
        return Workload(name, WHY[name], _suite_ops(seed), warmup=True)
    raise KeyError(name)


WORKLOADS = tuple(WHY)


# --- output checks --------------------------------------------------------

def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def output_tables(out: Path) -> dict[str, tuple[list[str], np.ndarray]]:
    """The profile and fracture CSVs of one ``run`` output folder."""
    names = sorted(p.name for p in out.glob("profile_*.csv"))
    names += sorted(p.name for p in out.glob("fracture_*.csv"))
    return {name: read_csv(out / name) for name in names}


class Goldens:
    """Seed-0 profile and fracture tables, keyed ``<op key>/<file name>``."""

    def __init__(self, path: Path = GOLDEN_FILE):
        self.tables: dict[str, np.ndarray] = {}
        if path.is_file():
            with np.load(path) as npz:
                self.tables = {k: npz[k] for k in npz.files}

    def check(self, key: str, out: Path) -> list[str]:
        """Mismatches between an output folder and the goldens of ``key``."""
        want = {k.split("/", 1)[1]: v for k, v in self.tables.items()
                if k.startswith(key + "/")}
        have = output_tables(out)
        problems = []
        if sorted(want) != sorted(have):
            problems.append(f"files {sorted(have)} != golden {sorted(want)}")
        for name in sorted(set(want) & set(have)):
            header, got = have[name]
            ref = want[name]
            if got.shape != ref.shape:
                problems.append(f"{name}: shape {got.shape} != golden {ref.shape}")
                continue
            geo = [i for i, h in enumerate(header) if h in ("s", "x", "y")]
            val = [i for i, h in enumerate(header) if h not in ("s", "x", "y")]
            geo_err = float(np.max(np.abs(got[:, geo] - ref[:, geo])))
            atol = GOLDEN_ATOL * max(1.0, float(np.max(np.abs(ref[:, val]))))
            val_err = float(np.max(np.abs(got[:, val] - ref[:, val])))
            if geo_err > GEOMETRY_ATOL:
                problems.append(f"{name}: coordinates differ by {geo_err:.3e}")
            if not val_err <= atol:
                problems.append(f"{name}: values differ by {val_err:.3e} > {atol:.1e}")
        return problems


@dataclass
class Outcome:
    """Result of one checked operation."""

    key: str
    seconds: float
    problems: list[str]
    defect_rel: float | None = None

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def check_operation(op: Operation, out: Path, code: int, goldens: Goldens | None,
                    ) -> tuple[list[str], float | None]:
    """(problems, defect/inflow) of one finished operation."""
    problems = [] if code == 0 else [f"exit code {code}"]
    defect_rel = None
    if op.command == "run":
        try:
            summary = json.loads((out / "summary.json").read_text())
        except (OSError, ValueError) as exc:
            return problems + [f"summary.json unreadable: {exc}"], None
        if summary.get("converged") is not True:
            problems.append("solver did not converge")
        try:
            inflow = float(summary["inflow"])
            defect = float(summary["mass_balance_defect"])
        except (KeyError, TypeError, ValueError) as exc:
            return problems + [f"summary.json lacks the mass balance: {exc!r}"], None
        defect_rel = defect / inflow if inflow > 0 else float("inf")
        if not defect <= DEFECT_GATE * inflow:
            problems.append(f"mass balance defect {defect_rel:.3e} * inflow "
                            f"> {DEFECT_GATE:g} * inflow")
        if op.golden and goldens is not None:
            problems += goldens.check(op.key, out)
    else:
        try:
            report = json.loads((out / "compare.json").read_text())
        except (OSError, ValueError) as exc:
            return problems + [f"compare.json unreadable: {exc}"], None
        if report.get("passed") is not True:
            problems.append(f"compare against {report.get('oracle')} did not pass")
    return problems, defect_rel

