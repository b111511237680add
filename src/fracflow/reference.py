"""Independent reference solutions: 1D analytics and a 2D equi-dimensional solve.

These are the oracles the interface model is compared against. The 1D
solutions are closed-form for a unit of horizontal through-flow; the 2D
oracle meshes the thin inclusion as a resolved band of cells instead of
collapsing it to an interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .assembly import BoundaryConditionSet, LinearSystem, assemble
from .errors import GeometryError
from .geometry import FractureNetwork, Mesh, Point, SplitMesh, _tensor_quad_mesh, split_mesh
from .solver import SolveReport, solve

__all__ = [
    "PiecewiseLinear1D",
    "solve_1d_heterogeneous_analytic",
    "solve_1d_interface_analytic",
    "EquidimResult",
    "solve_equidim_2d",
]


@dataclass(frozen=True)
class PiecewiseLinear1D:
    """Piecewise linear profile; one breakpoint may repeat to carry a jump."""

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        if bp.ndim != 1 or bp.shape != vals.shape or len(bp) < 2:
            raise GeometryError("breakpoints and values must be 1D arrays of equal length >= 2")
        if np.any(np.diff(bp) < 0.0):
            raise GeometryError("breakpoints must be non-decreasing")

    def eval(self, x, side: str = "mean"):
        """Evaluate at x; at a jump location choose 'left', 'right' or 'mean'."""
        if side not in ("left", "right", "mean"):
            raise ValueError(f"side must be left/right/mean, got {side!r}")
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        bp, vals = self.breakpoints, self.values
        outside = (xs < bp[0]) | (xs > bp[-1])
        if outside.any():
            raise GeometryError(
                f"evaluation point {xs[np.argmax(outside)]} outside [{bp[0]}, {bp[-1]}]")
        # A point equal to a repeated breakpoint sits exactly on the jump.
        first = np.searchsorted(bp, xs, side="left")
        after = np.searchsorted(bp, xs, side="right")
        on_jump = after - first > 1
        out = np.empty_like(xs)
        left, right = vals[first[on_jump]], vals[after[on_jump] - 1]
        out[on_jump] = {"left": left, "right": right, "mean": 0.5 * (left + right)}[side]
        smooth = ~on_jump
        j = np.clip(after[smooth] - 1, 0, len(bp) - 2)
        degenerate = bp[j + 1] == bp[j]     # interval degenerate: step over the jump
        j[degenerate] += np.where(j[degenerate] + 2 < len(bp), 1, -1)
        t = (xs[smooth] - bp[j]) / (bp[j + 1] - bp[j])
        out[smooth] = (1.0 - t) * vals[j] + t * vals[j + 1]
        return out if np.ndim(x) else float(out[0])

    def jump_at(self, x: float) -> float:
        return self.eval(x, "right") - self.eval(x, "left")


def _check_1d_args(L, S, eps, k1, k2, kf, h):
    for name, v in (("L", L), ("eps", eps), ("k1", k1), ("k2", k2), ("kf", kf)):
        if not (np.isfinite(v) and v > 0.0):
            raise GeometryError(f"{name} must be positive, got {v!r}")
    if not np.isfinite(h):
        raise GeometryError(f"h must be finite, got {h!r}")
    if not np.isfinite(S):
        raise GeometryError(f"S must be finite, got {S!r}")


def solve_1d_heterogeneous_analytic(L: float, S: float, eps: float, k1: float,
                                    k2: float, kf: float, h: float) -> PiecewiseLinear1D:
    """Exact pressure for through-flow h across a resolved inclusion.

    Mobility k1 on (0, S - eps/2), kf inside the inclusion, k2 on the right;
    inward flux h at x = 0 and p(L) = 0. The flux is h everywhere, so the
    profile is continuous and piecewise linear with slope -h/k on each piece.
    """
    _check_1d_args(L, S, eps, k1, k2, kf, h)
    s1, s2 = S - 0.5 * eps, S + 0.5 * eps
    if not (0.0 < s1 and s2 < L):
        raise GeometryError(f"inclusion [{s1}, {s2}] must lie strictly inside (0, {L})")
    p_s2 = h * (L - s2) / k2
    p_s1 = p_s2 + h * eps / kf
    p_0 = p_s1 + h * s1 / k1
    return PiecewiseLinear1D(
        breakpoints=np.array([0.0, s1, s2, L]),
        values=np.array([p_0, p_s1, p_s2, 0.0]),
    )


def solve_1d_interface_analytic(L: float, S: float, eps: float, k1: float,
                                k2: float, kf: float, h: float) -> PiecewiseLinear1D:
    """Exact pressure of the interface model: the inclusion collapsed to x = S.

    Through-flow h, p(L) = 0. Both sides keep slope -h/k; the interface
    carries the jump p_right - p_left = -(eps / kf) * h.
    """
    _check_1d_args(L, S, eps, k1, k2, kf, h)
    if not (0.0 < S < L):
        raise GeometryError(f"interface S={S} must lie strictly inside (0, {L})")
    p_right = h * (L - S) / k2
    jump = -(eps / kf) * h
    p_left = p_right - jump
    p_0 = p_left + h * S / k1
    return PiecewiseLinear1D(
        breakpoints=np.array([0.0, S, S, L]),
        values=np.array([p_0, p_left, p_right, 0.0]),
    )


@dataclass
class EquidimResult:
    """Equi-dimensional solve: fracture-free split mesh plus nodal pressure."""

    split: SplitMesh
    pressure: np.ndarray
    system: LinearSystem
    report: SolveReport
    k_per_cell: np.ndarray


def _band_widths(eps: Callable[[float], float], y: np.ndarray) -> np.ndarray:
    """float(eps(y)) at each entry of y, with one call per distinct y."""
    distinct, at = np.unique(y, return_inverse=True)
    return np.array([float(eps(v)) for v in distinct.tolist()])[at.reshape(y.shape)]


def solve_equidim_2d(nx_outside: int, band_cells_across: int, domain: tuple[Point, Point],
                     fracture_line_x: float, eps: Union[float, Callable[[float], float]],
                     k_background: float, kf: float, bcs: BoundaryConditionSet,
                     ny: int | None = None, tol: float = 1e-12,
                     max_iter: int | None = None) -> EquidimResult:
    """Solve the flow problem with the inclusion meshed as a thin band.

    A tensor-product grid is built from ``nx_outside`` uniform columns; grid
    lines falling inside the band around ``fracture_line_x`` are replaced by
    the band edges plus ``band_cells_across`` columns across the band. Cells
    whose center lies inside the band get mobility ``kf``.

    ``eps`` may be a callable of y (varying aperture); the band width is then
    row-dependent and approximated by whole cell columns, a documented
    discretization error of this oracle.
    """
    lower, upper = domain
    if lower.dim != 2 or upper.dim != 2:
        raise GeometryError("domain corners must be 2D points")
    if nx_outside < 2:
        raise GeometryError(f"nx_outside must be >= 2, got {nx_outside}")
    if band_cells_across < 1:
        raise GeometryError(f"band_cells_across must be >= 1, got {band_cells_across}")
    if ny is None:
        ny = nx_outside
    width = upper.x - lower.x
    if width <= 0 or upper.y - lower.y <= 0:
        raise GeometryError("domain must have positive extents")

    ys = np.linspace(lower.y, upper.y, ny + 1)
    if callable(eps):
        wmax = float(np.max(_band_widths(eps, np.linspace(lower.y, upper.y, 4 * ny + 1))))
    else:
        wmax = float(eps)
    if not (np.isfinite(wmax) and wmax > 0.0):
        raise GeometryError(f"band width must be positive, got {wmax!r}")
    b_lo = fracture_line_x - 0.5 * wmax
    b_hi = fracture_line_x + 0.5 * wmax
    if not (lower.x < b_lo and b_hi < upper.x):
        raise GeometryError(
            f"band [{b_lo}, {b_hi}] must lie strictly inside ({lower.x}, {upper.x})")

    uniform = np.linspace(lower.x, upper.x, nx_outside + 1)
    dx = width / nx_outside
    # Replace grid lines in (or nearly in) the band with exact band columns;
    # the margin avoids sliver cells hugging the band edges.
    keep = np.abs(uniform - fracture_line_x) > 0.5 * wmax + 0.05 * dx
    band_lines = np.linspace(b_lo, b_hi, band_cells_across + 1)
    xs = np.unique(np.concatenate([uniform[keep], band_lines]))
    mesh = _tensor_quad_mesh(xs, ys)

    split = split_mesh(mesh, FractureNetwork(()))
    centers = mesh.vertices[mesh.cells].mean(axis=1)
    if callable(eps):
        half_w = 0.5 * _band_widths(eps, centers[:, 1])     # the cells of a row share one y
    else:
        half_w = 0.5 * float(eps)
    in_band = np.abs(centers[:, 0] - fracture_line_x) < half_w
    for name, v in (("k_background", k_background), ("kf", kf)):
        if not (np.isfinite(v) and v > 0.0):
            raise GeometryError(f"{name} must be positive, got {v!r}")
    k_cell = np.where(in_band, float(kf), float(k_background))

    system = assemble(split, None, [], bcs, k_per_cell=k_cell)
    pressure, report = solve(system.matrix, system.rhs, tol=tol, max_iter=max_iter,
                           groups=system.copy_groups)
    return EquidimResult(split=split, pressure=pressure, system=system,
                         report=report, k_per_cell=k_cell)
