"""Independent references: closed-form 1D profiles and the resolved-band solver."""

import numpy as np
import pytest

from fracflow import (BoundaryConditionSet, FracflowError, FractureSpec, GeometryError,
                      PiecewiseLinear1D, Point, solve_1d_heterogeneous_analytic,
                      solve_1d_interface_analytic, solve_equidim_2d)

from conftest import jump_at, vertical_network


# --- piecewise-linear profiles ------------------------------------------------

def test_piecewise_eval_and_interp():
    f = PiecewiseLinear1D(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0, 0.0]))
    assert f.eval(0.5) == pytest.approx(1.0)
    assert f.eval(1.5) == pytest.approx(1.0)
    assert np.allclose(f.eval(np.array([0.0, 2.0])), [0.0, 0.0])


def test_piecewise_double_valued_breakpoint():
    # repeated breakpoint encodes a jump
    f = PiecewiseLinear1D(np.array([0.0, 1.0, 1.0, 2.0]),
                          np.array([0.0, 1.0, 3.0, 4.0]))
    assert f.eval(1.0, side="left") == pytest.approx(1.0)
    assert f.eval(1.0, side="right") == pytest.approx(3.0)
    assert f.eval(1.0, side="mean") == pytest.approx(2.0)
    assert jump_at(f, 1.0) == pytest.approx(2.0)
    with pytest.raises(ValueError) as err:     # still a ValueError, as before
        f.eval(1.0, side="above")
    assert isinstance(err.value, FracflowError)


def test_piecewise_validation():
    with pytest.raises(GeometryError):
        PiecewiseLinear1D(np.array([0.0, 2.0, 1.0]), np.array([0.0, 1.0, 2.0]))
    with pytest.raises(GeometryError):
        PiecewiseLinear1D(np.array([0.0, 1.0]), np.array([0.0]))
    f = PiecewiseLinear1D(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    with pytest.raises(GeometryError):
        f.eval(1.5)


def eval_per_point(f, x, side="mean"):
    """The point-by-point evaluation, kept as the reference for the
    array pass of ``PiecewiseLinear1D.eval``."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    bp, vals = f.breakpoints, f.values
    out = np.empty_like(xs)
    for i, xi in enumerate(xs):
        if xi < bp[0] or xi > bp[-1]:
            raise GeometryError(f"evaluation point {xi} outside [{bp[0]}, {bp[-1]}]")
        hits = np.nonzero(bp == xi)[0]
        if len(hits) > 1:          # sitting exactly on the jump
            left, right = vals[hits[0]], vals[hits[-1]]
            out[i] = {"left": left, "right": right, "mean": 0.5 * (left + right)}[side]
            continue
        j = int(np.searchsorted(bp, xi, side="right")) - 1
        j = min(max(j, 0), len(bp) - 2)
        if bp[j + 1] == bp[j]:     # interval degenerate: step over the jump
            j += 1 if j + 2 < len(bp) else -1
        t = (xi - bp[j]) / (bp[j + 1] - bp[j])
        out[i] = (1.0 - t) * vals[j] + t * vals[j + 1]
    return out if np.ndim(x) else float(out[0])


PIECEWISE = [
    PiecewiseLinear1D(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0, 0.0])),
    PiecewiseLinear1D(np.array([0.0, 0.3, 0.3, 1.0]), np.array([1.7, 0.9, 0.2, -0.4])),
    # jumps at both ends and a run of three equal breakpoints
    PiecewiseLinear1D(np.array([0.0, 0.0, 0.5, 0.5, 0.5, 1.0, 1.0]),
                      np.array([3.0, 1.0, 0.7, 0.1, -0.2, 0.4, 9.0])),
    solve_1d_interface_analytic(1.0, 0.5, 1e-3, 1.0, 2.0, 1e-2, 1.0),
]


@pytest.mark.parametrize("k", range(len(PIECEWISE)))
@pytest.mark.parametrize("side", ["left", "right", "mean"])
def test_piecewise_eval_matches_per_point_loop(k, side):
    f = PIECEWISE[k]
    bp = f.breakpoints
    xs = np.concatenate([bp, np.linspace(bp[0], bp[-1], 257),
                         np.random.default_rng(k).uniform(bp[0], bp[-1], 100),
                         np.nextafter(bp, -np.inf), np.nextafter(bp, np.inf)])
    # NaN passes the range check and takes the last interval's step rule
    xs = np.append(xs[(bp[0] <= xs) & (xs <= bp[-1])], np.nan)
    got, want = f.eval(xs, side), eval_per_point(f, xs, side)
    assert got.tobytes() == want.tobytes()
    assert f.eval(xs[:0], side).shape == (0,)
    for x in bp:
        got = f.eval(float(x), side)
        assert type(got) is float and got == eval_per_point(f, float(x), side)


def test_piecewise_eval_names_first_point_outside():
    f = PIECEWISE[1]
    xs = np.array([0.5, 0.25, 1.5, -2.0, 3.0])
    with pytest.raises(GeometryError) as got:
        f.eval(xs)
    with pytest.raises(GeometryError) as want:
        eval_per_point(f, xs)
    assert str(got.value) == str(want.value) == "evaluation point 1.5 outside [0.0, 1.0]"


# --- resolved-inclusion profile -----------------------------------------------

def test_heterogeneous_analytic_frozen_value():
    f = solve_1d_heterogeneous_analytic(1.0, 0.5, 1e-2, 1.0, 1.0, 1e-2, 1.0)
    assert f.eval(0.0) == pytest.approx(1.99, abs=1e-14)
    assert f.eval(1.0) == pytest.approx(0.0, abs=1e-14)
    # continuous across the inclusion edges
    assert jump_at(f, 0.495) == pytest.approx(0.0, abs=1e-14)
    assert jump_at(f, 0.505) == pytest.approx(0.0, abs=1e-14)


def test_heterogeneous_analytic_general_parameters():
    L, S, eps, k1, k2, kf, h = 1.0, 0.5, 1e-3, 2.0, 4.0, 1e-2, 3.0
    f = solve_1d_heterogeneous_analytic(L, S, eps, k1, k2, kf, h)
    s1, s2 = S - eps / 2, S + eps / 2
    expected_p0 = h * (s1 / k1 + eps / kf + (L - s2) / k2)
    assert f.eval(0.0) == pytest.approx(expected_p0, rel=1e-14)
    # slope of each piece is -h/k of that piece
    assert (f.eval(s1) - f.eval(0.0)) / s1 == pytest.approx(-h / k1, rel=1e-12)
    mid = f.eval(S) - f.eval(s1)
    assert mid / (eps / 2) == pytest.approx(-h / kf, rel=1e-10)


def test_heterogeneous_analytic_validation():
    with pytest.raises(GeometryError):
        solve_1d_heterogeneous_analytic(1.0, 0.9999, 1e-2, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(GeometryError):
        solve_1d_heterogeneous_analytic(1.0, 0.5, -1e-2, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(GeometryError):
        solve_1d_heterogeneous_analytic(1.0, 0.5, 1e-2, 0.0, 1.0, 1.0, 1.0)


# --- interface-model profile ---------------------------------------------------

def test_interface_analytic_frozen_values():
    f = solve_1d_interface_analytic(1.0, 0.5, 1e-2, 1.0, 1.0, 1e-2, 1.0)
    assert f.eval(0.0) == pytest.approx(2.0, abs=1e-14)
    assert jump_at(f, 0.5) == pytest.approx(-1.0, abs=1e-14)
    assert f.eval(0.5, side="left") == pytest.approx(1.5, abs=1e-14)
    assert f.eval(0.5, side="right") == pytest.approx(0.5, abs=1e-14)
    assert f.eval(0.25) == pytest.approx(1.75, abs=1e-14)


def test_interface_analytic_jump_scales_with_resistance():
    # jump = -(eps / kf) * h
    f = solve_1d_interface_analytic(2.0, 0.5, 1e-3, 1.0, 2.0, 1e-1, 4.0)
    assert jump_at(f, 0.5) == pytest.approx(-(1e-3 / 1e-1) * 4.0, rel=1e-14)
    assert f.eval(2.0) == pytest.approx(0.0, abs=1e-14)


def test_interface_vs_resolved_modeling_gap():
    # the two references agree up to O(eps) away from the interface
    eps = 1e-4
    a = solve_1d_interface_analytic(1.0, 0.5, eps, 1.0, 1.0, eps, 1.0)
    b = solve_1d_heterogeneous_analytic(1.0, 0.5, eps, 1.0, 1.0, eps, 1.0)
    assert abs(a.eval(0.0) - b.eval(0.0)) <= eps


# --- resolved-band 2D solver ---------------------------------------------------

_THROUGHFLOW = BoundaryConditionSet(dirichlet={"right": 0.0}, neumann={"left": 1.0})


class _Width:
    """An aperture profile given by ``width``, a scalar function of the arc
    length s: on the default path from (0.5, 0) up, s = y."""

    max_value = 1.0         # the coefficient floor's scale, unread by the band

    def __init__(self, width):
        self.width = width

    def at(self, s):
        return np.vectorize(self.width, otypes=[float])(s)


def _band(width, kf: float, path=(Point(0.5, 0.0), Point(0.5, 1.0))) -> FractureSpec:
    """A fracture whose aperture is ``width`` of the arc length alone."""
    return FractureSpec(path=path, aperture=_Width(width), mobility=kf)


def test_equidim_column_structure():
    res = solve_equidim_2d(10, 2, vertical_network(1e-2, 1e-2).fractures[0], _THROUGHFLOW)
    assert res.split.base.n_cells == 12 * 10     # 10 outside + 2 band columns
    assert int(np.sum(res.k_per_cell != 1.0)) == 2 * 10
    assert np.all(res.k_per_cell[res.k_per_cell != 1.0] == 1e-2)


def test_equidim_matches_resolved_1d_profile():
    # the band sits on the fracture's own line
    eps = kf = 1e-2
    for x_f in (0.5, 0.25, 0.75):
        fracture = vertical_network(eps, kf, x=x_f).fractures[0]
        res = solve_equidim_2d(16, 2, fracture, _THROUGHFLOW)
        exact = solve_1d_heterogeneous_analytic(1.0, x_f, eps, 1.0, 1.0, kf, 1.0)
        xs = res.split.base.vertices[:, 0]
        vals = np.array([exact.eval(float(x)) for x in xs])
        assert np.max(np.abs(res.pressure - vals)) < 1e-10, x_f


def test_equidim_variable_width_band():
    # zero width on the upper half: no low-permeability cells there
    res = solve_equidim_2d(10, 2, _band(lambda y: 1e-2 if y < 0.5 else 0.0, 1e-4),
                           _THROUGHFLOW)
    modified = res.k_per_cell != 1.0
    centers = res.split.base.vertices[res.split.base.cells].mean(axis=1)
    assert int(np.sum(modified)) == 2 * 5
    assert np.all(centers[modified][:, 1] < 0.5)
    # each cell gets the aperture at its centre's arc length, y on the path
    # run upwards and 1 - y on the path run downwards: of the 4 band columns
    # the outer two are inside the band where the arc length passes 0.5
    for path, arc in (((Point(0.5, 0.0), Point(0.5, 1.0)), lambda y: y),
                      ((Point(0.5, 1.0), Point(0.5, 0.0)), lambda y: 1.0 - y)):
        band = _band(lambda s: 1e-2 * (1.0 + s), 1e-4, path=path)
        res = solve_equidim_2d(10, 4, band, _THROUGHFLOW)
        centers = res.split.base.vertices[res.split.base.cells].mean(axis=1)
        s = arc(centers[:, 1])
        in_band = np.abs(centers[:, 0] - 0.5) < 0.5 * band.aperture.at(s)
        assert np.array_equal(res.k_per_cell != 1.0, in_band)
        assert np.count_nonzero(in_band & (s > 0.5)) == 4 * 5
        assert np.count_nonzero(in_band & (s < 0.5)) == 2 * 5


def test_equidim_validation():
    fracture = vertical_network(1e-2, 1.0).fractures[0]
    with pytest.raises(GeometryError):
        solve_equidim_2d(1, 2, fracture, _THROUGHFLOW)
    with pytest.raises(GeometryError):
        solve_equidim_2d(8, 0, fracture, _THROUGHFLOW)
    with pytest.raises(GeometryError):
        solve_equidim_2d(8, 2, _band(lambda y: 0.0, 1.0), _THROUGHFLOW)
    # the band is meshed along one straight vertical segment only
    for path in ((Point(0.5, 0.0), Point(0.5, 0.5), Point(0.6, 1.0)),     # bent
                 (Point(0.4, 0.0), Point(0.6, 1.0)),                      # oblique
                 (Point(0.5, 0.2), Point(0.5, 0.8))):                     # partial height
        with pytest.raises(GeometryError, match="vertical segment"):
            solve_equidim_2d(8, 2, _band(lambda y: 1e-2, 1.0, path=path), _THROUGHFLOW)
