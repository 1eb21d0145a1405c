"""Batched surface and path transport against the point-by-point loops.

The oracles below are the row-by-row sweep and the per-node path loop that
transport used before rows were swept together: scalar geometry, `at` per
point, one RK4 per row, every row swept and every step taken in full
(`scalar_rk4`, the stepper before it skipped the idle steps of the sitting
margins). The gauge transform, Maurer-Cartan form, action wedge,
transition-law and triple-overlap checks and `max_abs_on_grid` have their
per-point loops here too, as they were before forms took point stacks, and
so do the one-point formulas of an ExpParamMap; the array ramps are checked
against the scalar ones, and the stacked Frechet derivative of exp against
scipy's expm_frechet, one matrix at a time. Every comparison is bitwise.
"""

import builtins
import json
import math
import warnings
from collections import Counter
from itertools import combinations, product

import numpy as np
import pytest

import twogauge.expr as expr
import twogauge.groups as groups
import twogauge.maps as maps
import twogauge.transport as transport
from twogauge import cli
from twogauge.crossed import crossed_module
from twogauge.errors import EvalError
from twogauge.expr import evaluate, parse
from twogauge.forms import (
    FormField, PointwiseForm, StackedForm, _max_norm_on_directions, square_wedge,
)
from twogauge.geometry import (
    BIGON_FIXTURES, PATH_FIXTURES, Bigon, Path, Reparam, ramp, ramp_derivative,
    shipped_bigon, shipped_path,
)
from twogauge.groups import _SIGMA, su2_algebra
from twogauge.scenario import find_scenario, load_scenario
from twogauge.report import NO_SAMPLES, ValidationReport
from twogauge.transport import (
    LocalConnection, SurfaceResult, _rk4, check_transition_laws, check_triple_overlap,
    fake_flat_connection, fake_residual_on_bigon, path_holonomy, surface_holonomy,
    transform_connection,
)
from twogauge.twocells import TwoCell
from twogauge.maps import ConstantMap, ExpParamMap, NumericalMap, right_log_derivative

SU2_FIELD = {"1,1": "x2", "2,2": "sin(x1)", "3,1": "x1 * x2"}


def _scenario_connection(name):
    scn = load_scenario(name)
    return LocalConnection(scn.module, scn.forms["A"], scn.forms["B"])


def _completed(module, components):
    cm = crossed_module(module)
    return fake_flat_connection(cm, FormField.from_config(cm.G.algebra, 1, 2, components))


CONNECTIONS = {
    "su2_charts": _scenario_connection("su2_charts.scn"),
    "su2_nonflat": _scenario_connection("su2_nonflat.scn"),
    "abelian_square": _scenario_connection("abelian_square.scn"),
    "AUT(SU2)": _completed("AUT(SU2)", SU2_FIELD),
    "CONJ(U1)": _completed("CONJ(U1)", {"1,1": "x2", "1,2": "x1 * x1 + exp(x2)"}),
    # sigma_3 only: every holonomy is diagonal, with exact zeros off it
    "su2-diagonal": _completed("CONJ(SU2)", {"3,1": "x2 - 0.5", "3,2": "sin(x1)"}),
}


def _bigons():
    square = shipped_bigon("unit-square")
    shifted = Bigon.interpolate(Path.line((1.0, 0.0), (2.0, 0.0)),
                                Path.line((1.0, 0.0), (2.0, 0.0)).reparametrize(
                                    Reparam.power_of_sitting(2)))
    out = {name: shipped_bigon(name) for name in BIGON_FIXTURES}
    out.update({
        "vertical": shipped_bigon("half-square-lower").vertical(
            shipped_bigon("half-square-upper")),
        "horizontal": square.horizontal(shifted),
        "s-expr": square.reparametrize_s(Reparam.from_expr("x1 ^ 2 * (3 - 2 * x1)")),
        "t-expr": square.reparametrize_t(Reparam.from_expr("x1 + 0.4 * x1 * (1 - x1)")),
        "s-sitting": square.reparametrize_s(Reparam.sitting()),
        "t-power": square.reparametrize_t(Reparam.power_of_sitting(3)),
        "reversed": square.reverse_t(),
        "exprs": Bigon.from_exprs(["x1 + 0.2 * sin(3.141592653589793 * x1) * x2",
                                   "tanh(x2) * x1 * (1 - x1) + x2 ^ 2"]),
    })
    return out


BIGONS = _bigons()


# ------------------------------------------------------------------ oracles

def scalar_rk4(group, M_nodes, M_mids, h, right=False):
    """RK4 with every step taken in full, as `_rk4` was before idle steps."""
    mul = (lambda M, X: X @ M) if right else (lambda M, X: M @ X)
    Y = group.identity
    Ys = [Y]
    for M1, M2, M4 in zip(M_nodes, M_mids, M_nodes[1:]):
        K1 = mul(M1, Y)
        K2 = mul(M2, Y + (h / 2) * K1)
        K3 = mul(M2, Y + (h / 2) * K2)
        K4 = mul(M4, Y + h * K3)
        Y = group.renormalize(Y + (h / 6) * (K1 + 2 * K2 + 2 * K3 + K4))
        Ys.append(Y)
    return Ys


def scalar_fake_curvature_at(conn, point, u, v):
    h = 1e-5
    p = np.asarray(point, dtype=float)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    dAu = (np.asarray(conn.A.at(tuple(p + h * u), v))
           - np.asarray(conn.A.at(tuple(p - h * u), v))) / (2 * h)
    dAv = (np.asarray(conn.A.at(tuple(p + h * v), u))
           - np.asarray(conn.A.at(tuple(p - h * v), u))) / (2 * h)
    Au, Av = conn.A.at(tuple(p), u), conn.A.at(tuple(p), v)
    F = dAu - dAv + (Au @ Av - Av @ Au)
    return F + conn.cm.dt(conn.B.at(tuple(p), u, v))


def scalar_fake_residual(conn, bigon, samples=9):
    worst = 0.0
    fake = conn.fake_curvature() if conn.is_symbolic else None
    for s in np.linspace(0.05, 0.95, samples):
        for t in np.linspace(0.05, 0.95, samples):
            p = bigon.value(s, t)
            u, v = bigon.d_s(s, t), bigon.d_t(s, t)
            val = fake.at(tuple(p), u, v) if fake is not None \
                else scalar_fake_curvature_at(conn, p, u, v)
            worst = max(worst, float(np.linalg.norm(val)))
    return worst


def scalar_surface_holonomy(conn, bigon, grid):
    """The row loop: each row swept alone, point by point."""
    cm = conn.cm
    G, H = cm.G, cm.H
    n2 = 2 * grid
    hs = 1.0 / n2
    simpson_w = np.ones(n2 + 1)
    simpson_w[1:-1:2] = 4.0
    simpson_w[2:-1:2] = 2.0
    simpson_w *= hs / 3.0

    def row(t):
        ss = [k * hs for k in range(n2 + 1)]
        pts = [(tuple(bigon.value(s, t)), bigon.d_s(s, t)) for s in ss]
        Bvs = [conn.B.at(p, u, bigon.d_t(s, t)) for (p, u), s in zip(pts, ss)]
        Ws = [G.identity]
        if not G.trivial:
            mids = [(tuple(bigon.value(s + hs / 2, t)), bigon.d_s(s + hs / 2, t))
                    for s in ss[:-1]]
            Ws = scalar_rk4(G, [-np.asarray(conn.A.at(*pu)) for pu in pts],
                            [-np.asarray(conn.A.at(*pu)) for pu in mids], hs)
            Bvs = [cm.act_algebra(G.inv(W), Bv) for W, Bv in zip(Ws, Bvs)]
        b = H.algebra.zero()
        for w, Bv in zip(simpson_w, Bvs):
            b = b + w * np.asarray(Bv)
        return b, Ws[-1]

    ht = 1.0 / grid
    b0, W_source = row(0.0)
    b_nodes, b_mids = [-b0], []
    for j in range(grid):
        t = j * ht
        b_mids.append(-row(t + ht / 2)[0])
        b_end, W_last = row(t + ht)
        b_nodes.append(-b_end)
    k_el = scalar_rk4(H, b_nodes, b_mids, ht, right=True)[-1]
    W_target = W_last if t + ht == 1.0 else row(1.0)[1]
    fake = scalar_fake_residual(conn, bigon)
    cell = TwoCell(cm, W_source, cm.alpha(W_source, k_el))
    return SurfaceResult(cell, fake, fake <= transport.TAU_FAKE, W_target, grid)


def scalar_path_holonomy(group, A, path, steps):
    def rhs(s):
        return -np.asarray(A.at(tuple(path.value(s)), path.velocity(s)))

    h = 1.0 / steps
    nodes = [rhs(0.0)] + [rhs(k * h + h) for k in range(steps)]
    mids = [rhs(k * h + h / 2) for k in range(steps)]
    return scalar_rk4(group, nodes, mids, h)[-1]


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, np.ascontiguousarray(a).tobytes()


def assert_same_surface(got, want):
    assert _bits(got.g) == _bits(want.g)
    assert _bits(got.h) == _bits(want.h)
    assert _bits(got.target_holonomy) == _bits(want.target_holonomy)
    assert _bits(got.fake_residual) == _bits(want.fake_residual)
    assert got.flat == want.flat


# ------------------------------------------------------------- surfaces

@pytest.mark.parametrize("grid", [1, 2, 3, 5, 6, 7, 10, 12, 32])
def test_every_grid_matches_the_row_loop(grid):
    # grids 6, 10 and 12 end their t-steps off 1.0 and sweep the row t = 1
    # separately; the others reuse the last step's row
    conn, square = CONNECTIONS["su2_charts"], BIGONS["unit-square"]
    assert_same_surface(surface_holonomy(conn, square, grid=grid),
                        scalar_surface_holonomy(conn, square, grid))


@pytest.mark.parametrize("name", sorted(BIGONS))
def test_every_bigon_matches_the_row_loop(name):
    for conn_name, grid in (("su2_charts", 6), ("AUT(SU2)", 3)):
        conn = CONNECTIONS[conn_name]
        assert_same_surface(surface_holonomy(conn, BIGONS[name], grid=grid),
                            scalar_surface_holonomy(conn, BIGONS[name], grid))


@pytest.mark.parametrize("name", sorted(CONNECTIONS))
@pytest.mark.parametrize("grid", [1, 7, 12])
def test_every_connection_matches_the_row_loop(name, grid):
    for bigon in ("unit-square", "vertical"):
        assert_same_surface(surface_holonomy(CONNECTIONS[name], BIGONS[bigon], grid=grid),
                            scalar_surface_holonomy(CONNECTIONS[name], BIGONS[bigon], grid))


@pytest.mark.parametrize("cap", [1, 40, 200, 1000])
def test_blocks_of_any_size_give_the_same_bits(cap, monkeypatch):
    # from one row per block to uneven blocks and a single block
    conn, square = CONNECTIONS["su2_charts"], BIGONS["t-expr"]
    want = scalar_surface_holonomy(conn, square, 5)
    monkeypatch.setattr(transport, "MAX_BLOCK_POINTS", cap)
    assert_same_surface(surface_holonomy(conn, square, grid=5), want)


def test_grid_128_spans_more_than_one_block():
    rows, points_per_row = 2 * 128 + 1, 4 * 128 + 1
    assert rows * points_per_row > transport.MAX_BLOCK_POINTS


def test_pointwise_connection_matches_the_row_loop(monkeypatch):
    # a gauge transform has numerical components only: the fake gate takes
    # central differences; the row loop runs the per-point transform closures
    cm = crossed_module("CONJ(SU2)")
    gmap = ExpParamMap.from_exprs(cm.G, 2, ["0.3 * x1", "0.2 * x2", "0.1 * x1 * x2"])
    a_form = FormField.from_config(cm.H.algebra, 1, 2, {"1,1": "0.2 * x2"})
    conn = transform_connection(cm, CONNECTIONS["su2_charts"], gmap, a_form)
    assert not conn.is_symbolic
    want = scalar_surface_holonomy(scalar_transform(cm, CONNECTIONS["su2_charts"], gmap, a_form),
                                   BIGONS["unit-square"], 2)
    assert_same_surface(surface_holonomy(conn, BIGONS["unit-square"], grid=2), want)
    # 45 sample points in blocks of at most 20: each block evaluates the
    # transform on new point stacks of the same map
    monkeypatch.setattr(transport, "MAX_BLOCK_POINTS", 20)
    assert_same_surface(surface_holonomy(conn, BIGONS["unit-square"], grid=2), want)


@pytest.mark.parametrize("name", sorted(CONNECTIONS))
def test_fake_gate_matches_the_point_loop(name):
    for bigon in ("unit-square", "thin-sliver", "horizontal"):
        got = fake_residual_on_bigon(CONNECTIONS[name], BIGONS[bigon])
        assert _bits(got) == _bits(scalar_fake_residual(CONNECTIONS[name], BIGONS[bigon]))


def test_division_by_zero_at_a_node_reports_the_scalar_error():
    # x1 - 0.5 vanishes at the node s = 1/2 of the rows that sit at t = 0
    cm = crossed_module("CONJ(SU2)")
    conn = CONNECTIONS["su2_charts"]
    B = FormField.from_config(cm.H.algebra, 2, 2, {"1,12": "1 / (x1 - 0.5)"})
    broken = LocalConnection(cm, conn.A, B)
    with pytest.raises(EvalError) as scalar:
        evaluate(parse("1 / (x1 - 0.5)"), (0.5, 0.0))
    for run in (lambda: surface_holonomy(broken, BIGONS["unit-square"], grid=4),
                lambda: scalar_surface_holonomy(broken, BIGONS["unit-square"], 4)):
        with pytest.raises(EvalError) as got:
            run()
        assert str(got.value) == str(scalar.value)
        assert got.value.subexpression == scalar.value.subexpression == "1 / (x1 - 0.5)"


# ----------------------------------------------------------------- paths

@pytest.mark.parametrize("name", PATH_FIXTURES)
def test_path_transport_matches_the_node_loop(name):
    path = shipped_path(name)
    for conn_name in ("su2_charts", "AUT(SU2)", "CONJ(U1)", "su2-diagonal"):
        conn = CONNECTIONS[conn_name]
        for steps in (1, 3, 8, 100):
            got = path_holonomy(conn.cm, conn.A, path, steps=steps)
            want = scalar_path_holonomy(conn.cm.G, conn.A, path, steps)
            assert _bits(got) == _bits(want), (conn_name, steps)


def test_reversed_and_reparametrized_paths_match_the_node_loop():
    conn = CONNECTIONS["su2_charts"]
    arc = shipped_path("circle-arc")
    for path in (arc.reverse(), arc.reparametrize(Reparam.from_expr("x1 ^ 2 * (3 - 2 * x1)")),
                 shipped_path("pi-detour").reparametrize(Reparam.power_of_sitting(2))):
        assert _bits(path_holonomy(conn.cm, conn.A, path, steps=64)) == \
            _bits(scalar_path_holonomy(conn.cm.G, conn.A, path, 64))


# ------------------------------------------------------ sitting margins
# idle RK4 steps, repeated rows and the array ramps against the oracles above

def _margin_points():
    edges = [0.0, 1.0, -0.0, 0.1, 0.9]
    near = [np.nextafter(e, d) for e in edges for d in (-np.inf, np.inf)]
    rng = np.random.default_rng(11)
    # the uniform draws near 0.1 and 0.9 reach where exp(-1/u) underflows
    return np.concatenate([edges, near, rng.uniform(-0.1, 1.1, 100_000),
                           rng.uniform(0.0995, 0.1015, 2000),
                           rng.uniform(0.8985, 0.9005, 2000)])


@pytest.mark.parametrize("fn", [ramp, ramp_derivative])
def test_array_ramps_match_the_scalar_ramps(fn):
    s = _margin_points()
    want = np.array([fn(float(x)) for x in s])
    assert _bits(fn(s)) == _bits(want)
    assert _bits(fn(s[:60].reshape(3, 4, 5))) == _bits(want[:60].reshape(3, 4, 5))
    assert _bits(fn(s[7:8].reshape(()))) == _bits(want[7:8].reshape(()))
    # up to 16 elements run the scalar ramp per element, from 17 the array ramp
    for n in (1, 2, 9, 16, 17):
        assert _bits(fn(s[:n])) == _bits(want[:n])
    with pytest.raises(ZeroDivisionError):
        fn(np.array([0.5, np.nan]))
    with pytest.raises(ZeroDivisionError):
        fn(np.nan)


def _full_steps(monkeypatch):
    """The list that gets one entry per RK4 step taken in full."""
    calls = []
    step = transport._rk4_step

    def counting(*args):
        calls.append(1)
        return step(*args)
    monkeypatch.setattr(transport, "_rk4_step", counting)
    return calls


def test_the_sitting_margins_take_no_full_step_and_no_repeated_row(monkeypatch):
    conn = CONNECTIONS["su2_charts"]
    steps = _full_steps(monkeypatch)
    path_holonomy(conn.cm, conn.A, shipped_path("circle-arc"), steps=1000)
    # the velocity is exactly zero for s <= 0.101 and s >= 0.899, where
    # exp(-1/u) underflows: 202 of the 1000 steps are idle
    assert len(steps) == 798
    points = []
    A_at = conn.A.at_points

    def counting(p, *vectors):
        points.append(len(p))
        return A_at(p, *vectors)
    monkeypatch.setattr(conn.A, "at_points", counting)
    steps.clear()
    surface_holonomy(conn, BIGONS["unit-square"], grid=32)
    # rows t = k/64: k = 0..6 and k = 58..64 sit, so 12 of the 65 rows
    # repeat the row before them; each row has 129 nodes and midpoints
    assert points == [53 * 129]
    # 9 of the 64 s-steps and 6 of the 32 t-steps are idle
    assert len(steps) == (64 - 9) + (32 - 6)


def test_a_row_repeats_only_where_every_sample_has_its_bits():
    # samples (s, row, coordinate); `_repeated_rows` tests column 1 first
    points = np.repeat(np.random.default_rng(5).uniform(size=(7, 1, 2)), 6, axis=1)
    tangents = points.copy()
    tangents[3, :, 1] = 0.0
    normals = points[:4].copy()
    points[5, 2, 0] += 1.0        # row 2 differs away from column 1
    tangents[3, 4, 1] = -0.0      # row 4 differs only in the sign of a zero
    normals[0, 5, 0] += 1.0       # row 5 differs in the last array only
    repeat = transport._repeated_rows(1, points, tangents, normals)
    assert repeat.tolist() == [False, True, False, False, False, False]
    assert transport._repeated_rows(1, points[:, :2]).tolist() == [False, True]
    assert transport._repeated_rows(1, points[:, 2:4]).tolist() == [False, False]
    assert transport._repeated_rows(1, points[:, [0, 1, 3, 0, 1]]).tolist() == \
        [False, True, True, True, True]


def test_an_all_idle_call_keeps_the_shapes_of_full_steps(monkeypatch):
    conn = CONNECTIONS["su2_charts"]
    G = conn.cm.G
    steps = _full_steps(monkeypatch)
    for grid in (1, 4):
        assert_same_surface(surface_holonomy(conn, BIGONS["constant-origin"], grid=grid),
                            scalar_surface_holonomy(conn, BIGONS["constant-origin"], grid))
    W = path_holonomy(conn.cm, conn.A, shipped_path("constant-origin"), steps=50)
    assert _bits(W) == _bits(scalar_path_holonomy(G, conn.A, shipped_path("constant-origin"), 50))
    # a stack of 3 and a real M widen the identity as a full step would
    for M in (np.zeros((5, 3, 2, 2), dtype=complex), np.zeros((5, 3, 2, 2))):
        for right in (False, True):
            got, want = _rk4(G, M, M[:4], 0.25, right), scalar_rk4(G, M, M[:4], 0.25, right)
            assert [_bits(Y) for Y in got] == [_bits(Y) for Y in want]
    assert steps == []


class _UncheckedGroup:
    """What `_rk4` reads of a group, with a chosen identity and no reprojection."""

    def __init__(self, identity):
        self.identity = identity

    def renormalize(self, g):
        return g


@pytest.mark.parametrize("entry", [-0.0, complex(0.0, -0.0), complex(-0.0, -0.0), np.inf])
@pytest.mark.parametrize("right", [False, True])
def test_an_idle_step_runs_in_full_where_plus_zero_would_move_y(entry, right):
    # -0.0 + +0.0 is +0.0 and inf * 0 is NaN: Y has to take the full step.
    # The real -0.0 sits where the increment is +0.0: above the diagonal for
    # M Y, below it for Y M
    identity = np.eye(2, dtype=complex)
    identity[(1, 0) if right else (0, 1)] = entry
    group = _UncheckedGroup(identity)
    zero = np.zeros((2, 2), dtype=complex)
    with np.errstate(invalid="ignore"):
        got = _rk4(group, [zero] * 4, [zero] * 3, 0.25, right)
        want = scalar_rk4(group, [zero] * 4, [zero] * 3, 0.25, right)
    assert [_bits(Y) for Y in got] == [_bits(Y) for Y in want]
    assert _bits(got[1]) != _bits(identity)


def test_a_diagonal_connection_keeps_exact_zeros_off_the_diagonal():
    conn = CONNECTIONS["su2-diagonal"]
    result = surface_holonomy(conn, BIGONS["unit-square"], grid=8)
    W = path_holonomy(conn.cm, conn.A, shipped_path("pi-detour"), steps=64)
    for X in (result.g, result.h, result.target_holonomy, W):
        assert X[0, 1] == 0 and X[1, 0] == 0
        assert not np.allclose(X, np.eye(2))


# ------------------------------------------------------ gauge transforms
# the per-point closures of the transform and of the transition-law check

def scalar_maurer_cartan(gmap):
    group = gmap.group

    def fn(point, v):
        g = gmap.at(point)
        return group.algebra.project(-gmap.jac(point, v) @ group.inv(g))

    return PointwiseForm(group.algebra, 1, gmap.dim, fn)


def scalar_action_wedge(cm, A, omega):
    def fn(p, u, v):
        return (cm.dalpha(A.at(p, u), omega.at(p, v))
                - cm.dalpha(A.at(p, v), omega.at(p, u)))
    return PointwiseForm(cm.H.algebra, 2, omega.dim, fn)


def scalar_transform(cm, conn, gmap, a_form):
    mc = scalar_maurer_cartan(gmap)

    def A_fn(p, v):
        g = gmap.at(p)
        return (g @ conn.A.at(p, v) @ cm.G.inv(g) + mc.at(p, v)
                - cm.dt(a_form.at(p, v)))

    A_new = PointwiseForm(cm.G.algebra, 1, conn.dim, A_fn)
    k_free = a_form.d() + square_wedge(a_form)
    k_act = scalar_action_wedge(cm, A_new, a_form)

    def B_fn(p, u, v):
        return cm.act_algebra(gmap.at(p), conn.B.at(p, u, v)) + (
            k_free.at(p, u, v) + k_act.at(p, u, v))

    B_new = PointwiseForm(cm.H.algebra, 2, conn.dim, B_fn)
    return LocalConnection(cm, A_new, B_new)


def scalar_forms_close(f1, f2, points, tol):
    worst = 0.0
    for p in points:
        for vs in combinations(np.eye(f1.dim), f1.degree):
            worst = max(worst, float(np.linalg.norm(f1.at(p, *vs) - f2.at(p, *vs))))
    return worst, worst <= tol


def scalar_transition_laws(cm, left, right, gmap, a_form, points, tol=1e-9):
    transformed = scalar_transform(cm, right, gmap, a_form)
    rep = ValidationReport("transition laws")
    if len(points) == 0:
        rep.skip("connection-law", NO_SAMPLES)
        rep.skip("surface-law", NO_SAMPLES)
        return rep
    for name, f1, f2 in (("connection-law", left.A, transformed.A),
                         ("surface-law", left.B, transformed.B)):
        worst, ok = scalar_forms_close(f1, f2, points, tol)
        rep.add(name, ok, residual=worst, tolerance=tol)
    return rep


def scalar_triple_overlap(cm, a_ij, a_jk, a_ik, g_ij, hmap, A_i, points, tol=1e-9):
    rldh = right_log_derivative(hmap)
    rep = ValidationReport("triple overlap law")
    worst = 0.0
    for p in points:
        h = hmap.at(p)
        hi = cm.H.inv(h)
        for v in np.eye(len(p)):
            lhs = (np.asarray(a_ij.at(p, v))
                   + cm.act_algebra(g_ij.at(p), a_jk.at(p, v)))
            rhs = (h @ np.asarray(a_ik.at(p, v)) @ hi
                   + rldh.at(p, v)
                   + cm.dalpha_group(A_i.at(p, v), h))
            worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    rep.add("shift-cocycle", worst <= tol, residual=worst, tolerance=tol)
    return rep


def scalar_max_abs_on_grid(form, points):
    """The loop of max(worst, norm) from 0.0, which skips NaN norms; NaN
    where every norm is NaN."""
    worst = 0.0
    norms = []
    tuples = list(combinations(np.eye(form.dim), form.degree))
    for p in points:
        for vs in tuples:
            norms.append(float(np.linalg.norm(form.at(p, *vs))))
            worst = max(worst, norms[-1])
    return math.nan if norms and all(map(math.isnan, norms)) else worst


def assert_same_report(got, want):
    assert got.to_dict() == want.to_dict()
    assert [_bits(c.residual) for c in got.checks] == [_bits(c.residual) for c in want.checks]


def _both_checks(cm, right, gmap, a_form, points, check_map=None, check_a=None, left=None):
    """The library's check of the library's left chart, and the oracle's
    check of the oracle's left chart (or of both against a given left)."""
    check_map, check_a = check_map or gmap, check_a or a_form
    got = check_transition_laws(cm, left or transform_connection(cm, right, gmap, a_form),
                                right, check_map, check_a, points)
    want = scalar_transition_laws(cm, left or scalar_transform(cm, right, gmap, a_form),
                                  right, check_map, check_a, points)
    return got, want


@pytest.mark.parametrize("samples", [0, 1, 5, 20])
@pytest.mark.parametrize("seed", [0, 7, 42])
@pytest.mark.parametrize("name", ["su2_charts.scn", "transitions_perturbed.scn"])
def test_shipped_transitions_match_the_point_loop(name, seed, samples):
    scn = load_scenario(name)
    right = LocalConnection(scn.module, scn.forms["A"], scn.forms["B"])
    a_checked = scn.a_form if scn.perturb is None else scn.a_form.scaled(1.0 + scn.perturb)
    points = cli._chart_points(scn, seed, n=samples, lo=0.1, hi=0.9)
    left = transform_connection(scn.module, right, scn.gmap, scn.a_form)
    got = check_transition_laws(scn.module, left, right, scn.gmap, a_checked, points,
                                tol=scn.tolerances["transition"])
    want = scalar_transition_laws(scn.module, scalar_transform(scn.module, right, scn.gmap,
                                                               scn.a_form),
                                  right, scn.gmap, a_checked, points,
                                  tol=scn.tolerances["transition"])
    assert_same_report(got, want)


# criterion 6: five points, and shift and gauge maps bumped by 0.01
CRITERION_6_POINTS = [np.array([0.15, 0.35]), np.array([0.5, 0.6]), np.array([0.85, 0.2]),
                      np.array([0.3, 0.8]), np.array([0.7, 0.45])]


def test_bumped_shift_and_gauge_maps_match_the_point_loop():
    scn = load_scenario("su2_charts.scn")
    cm = scn.module
    right = LocalConnection(cm, scn.forms["A"], scn.forms["B"])
    a_bumped = FormField.from_config(cm.H.algebra, 1, 2,
                                     {"1,1": "0.2 * x2 + 0.01", "2,2": "0.1 * x1"})
    # the bumped g is a map of its own: the left chart shares no stack with it
    g_bumped = ExpParamMap.from_exprs(cm.G, 2, ["0.3 * x1", "0.2 * x2", "0.1 * x1 * x2 + 0.01"])
    for check_map, check_a in ((None, a_bumped), (g_bumped, None)):
        got, want = _both_checks(cm, right, scn.gmap, scn.a_form, CRITERION_6_POINTS,
                                 check_map, check_a)
        assert not got.passed
        assert_same_report(got, want)


def test_a_pointwise_left_chart_matches_the_point_loop():
    scn = load_scenario("su2_charts.scn")
    cm = scn.module
    right = LocalConnection(cm, scn.forms["A"], scn.forms["B"])
    left = scalar_transform(cm, right, scn.gmap, scn.a_form)
    assert isinstance(left.A, PointwiseForm) and isinstance(left.B, PointwiseForm)
    for a_form in (scn.a_form, scn.a_form.scaled(1.01)):
        assert_same_report(*_both_checks(cm, right, scn.gmap, a_form, CRITERION_6_POINTS,
                                         left=left))


MATRIX_MODULES = {
    # (connection, gauge map exponents, shift form)
    "CONJ(U1)": (CONNECTIONS["CONJ(U1)"], ["0.4 * x1 - x2 * x2"], {"1,1": "0.3 * x2"}),
    "CONJ(SU2)": (CONNECTIONS["su2_charts"], ["0.3 * x1", "0.2 * x2", "0.1 * x1 * x2"],
                  {"1,1": "0.2 * x2", "2,2": "0.1 * x1", "3,1": "x1 * x2"}),
    "AUT(SU2)": (CONNECTIONS["AUT(SU2)"], ["sin(x1)", "0.5 * x2", "x1 * x2"],
                 {"1,1": "0.2 * x2", "3,2": "cos(x1)"}),
    "GERBE(U1)": (CONNECTIONS["abelian_square"], [], {"1,1": "x2", "1,2": "0.5 * x1 * x1"}),
}


@pytest.mark.parametrize("name", sorted(MATRIX_MODULES))
def test_every_matrix_module_transforms_like_the_point_loop(name):
    conn, exps, shift = MATRIX_MODULES[name]
    cm = conn.cm
    assert cm.name == name
    gmap = ExpParamMap.from_exprs(cm.G, 2, exps)
    a_form = FormField.from_config(cm.H.algebra, 1, 2, shift)
    points = np.random.default_rng(3).uniform(-1.0, 1.0, size=(12, 2))
    u, v = np.random.default_rng(4).normal(size=(2, 12, 2))
    got = transform_connection(cm, conn, gmap, a_form)
    want = scalar_transform(cm, conn, gmap, a_form)
    assert _bits(got.A.at_points(points, u)) == \
        _bits(np.array([want.A.at(tuple(p), x) for p, x in zip(points, u)]))
    assert _bits(got.B.at_points(points, u, v)) == \
        _bits(np.array([want.B.at(tuple(p), x, y) for p, x, y in zip(points, u, v)]))
    for a_checked in (a_form, a_form.scaled(1.01)):
        assert_same_report(*_both_checks(cm, conn, gmap, a_checked, points))


def test_division_by_zero_in_an_exponent_reports_the_scalar_error():
    # 1 / (x1 - 0.5) has no value at the third point
    scn = load_scenario("su2_charts.scn")
    cm = scn.module
    right = LocalConnection(cm, scn.forms["A"], scn.forms["B"])
    gmap = ExpParamMap.from_exprs(cm.G, 2, ["1 / (x1 - 0.5)", "0.2 * x2", "0"])
    points = [np.array([0.1, 0.2]), np.array([0.3, 0.4]), np.array([0.5, 0.6])]
    errors = []
    for run in (lambda: check_transition_laws(
                    cm, transform_connection(cm, right, gmap, scn.a_form), right, gmap,
                    scn.a_form, points),
                lambda: scalar_transition_laws(
                    cm, scalar_transform(cm, right, gmap, scn.a_form), right, gmap,
                    scn.a_form, points)):
        with pytest.raises(EvalError) as got:
            run()
        errors.append((str(got.value), got.value.subexpression))
    assert errors[0] == errors[1] == ("division by zero", "1 / (x1 - 0.5)")


TRIPLE_MODULES = {
    # (connection, g_ij exponents, h exponents, a_ij, a_jk, a_ik)
    "CONJ(U1)": (CONNECTIONS["CONJ(U1)"], ["0.4 * x1 - x2 * x2"], ["0.3 * x1 * x2"],
                 {"1,1": "0.3 * x2"}, {"1,2": "x1"}, {"1,1": "0.5", "1,2": "x2 * x1"}),
    "CONJ(SU2)": (CONNECTIONS["su2_charts"], ["0.3 * x1", "0.2 * x2", "0.1 * x1 * x2"],
                  ["0.2 * x2", "0.1 * x1", "0"], {"1,2": "x1", "2,1": "0.4 * x2"},
                  {"3,2": "0.3 * x1", "1,1": "0.1"}, {"2,1": "x2 * x2", "3,2": "0.2"}),
    "AUT(SU2)": (CONNECTIONS["AUT(SU2)"], ["sin(x1)", "0.5 * x2", "x1 * x2"],
                 ["0.2", "x1 * x2", "cos(x2)"], {"1,1": "0.2 * x2", "3,2": "cos(x1)"},
                 {"2,2": "x2"}, {"1,2": "x1 - x2"}),
}


def _h_maps(H, exps):
    exp_map = ExpParamMap.from_exprs(H, 2, exps)
    return {"exp": exp_map,
            "constant": ConstantMap(H, exp_map.at((0.3, -0.2)), 2),
            # its own ExpParamMap: the numerical map's points never evict
            # the stacks of the map it is compared with
            "numerical": NumericalMap(H, ExpParamMap.from_exprs(H, 2, exps).at, 2)}


@pytest.mark.parametrize("h_kind", ["exp", "constant", "numerical"])
@pytest.mark.parametrize("name", sorted(TRIPLE_MODULES))
def test_triple_overlap_matches_the_point_loop(name, h_kind):
    conn, g_exps, h_exps, a_ij, a_jk, a_ik = TRIPLE_MODULES[name]
    cm = conn.cm
    assert cm.name == name
    g_ij = ExpParamMap.from_exprs(cm.G, 2, g_exps)
    hmap = _h_maps(cm.H, h_exps)[h_kind]
    a_ij, a_jk, a_ik = (FormField.from_config(cm.H.algebra, 1, 2, a) for a in (a_ij, a_jk, a_ik))
    # a_ik as a point function: the form behind it, one point at a time
    a_ik = PointwiseForm(cm.H.algebra, 1, 2, a_ik.at)
    points = np.random.default_rng(6).uniform(-1.0, 1.0, size=(12, 2))
    for pts in (points[:1], points):
        args = (cm, a_ij, a_jk, a_ik, g_ij, hmap, conn.A, pts)
        got, want = check_triple_overlap(*args), scalar_triple_overlap(*args)
        assert_same_report(got, want)
        assert got.max_residual > 1e-3


GRID_FORMS = [
    (0, {"1": "x1 * x2", "3": "exp(x3)"}),
    (1, {"1,1": "x2", "2,3": "sin(x1) * x3", "3,2": "x1 ^ 2"}),
    (2, {"1,12": "x3", "2,13": "x1 * x2", "3,23": "tanh(x2)"}),
    (3, {"1,123": "x1 + x2 * x3", "2,123": "cos(x3)"}),
    # NaN at the points with x1 = 0, where 1e999 * x1 is inf * 0, in every
    # direction: the one-point stack points[3:4] has no norm that is a number
    (1, {"1,1": "tanh(1e999 * x1) * x2", "2,3": "x3"}),
]


@pytest.mark.parametrize("degree, components", GRID_FORMS)
def test_max_abs_on_grid_matches_the_point_loop(degree, components):
    form = FormField.from_config(su2_algebra(), degree, 3, components)
    points = np.random.default_rng(8).uniform(-1.0, 1.0, size=(20, 3))
    points[[3, 11], 0] = 0.0
    for pts in (points[:0], points[:1], points[3:4], points):
        assert _bits(form.max_abs_on_grid(pts)) == _bits(scalar_max_abs_on_grid(form, pts))
        assert _bits(form.max_abs_on_grid(list(pts))) == _bits(form.max_abs_on_grid(pts))


@pytest.mark.parametrize("nan_direction", [0, 1])
def test_a_direction_with_no_number_does_not_hide_the_others(nan_direction):
    # NaN at every point in one direction and 2 in the other: the loop of
    # max(worst, norm) skips the NaN norms, whichever direction comes first
    def fn(points, v):
        value = np.nan if v[0, nan_direction] == 1.0 else 2.0
        return np.full((len(points), 2, 2), value)
    points = np.zeros((3, 2))
    assert _max_norm_on_directions(2, 1, points, fn) == 4.0
    assert math.isnan(_max_norm_on_directions(2, 1, points, lambda p, v: fn(p, v * 0 + 1)))


# the projectors as they were before they took stacks: .T is wrong there
def _old_proj_su(X):
    Y = (X - X.conj().T) / 2
    return Y - (np.trace(Y) / X.shape[0]) * np.eye(X.shape[0])


def _old_proj_skew_hermitian(X):
    return (X - X.conj().T) / 2


def _old_proj_antisymmetric(X):
    return np.real(X - X.T) / 2 if np.iscomplexobj(X) else (X - X.T) / 2


def _old_aut_dt(x):
    a = np.array([1j * np.trace(s @ x) for s in _SIGMA]).real
    return np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])


def _old_aut_dalpha(y, x):
    a = np.array([y[2, 1], y[0, 2], y[1, 0]])
    yh = -0.5j * (a[0] * _SIGMA[0] + a[1] * _SIGMA[1] + a[2] * _SIGMA[2])
    return yh @ x - x @ yh


OLD_PROJECTORS = {"su(2)": _old_proj_su, "u(1)": _old_proj_skew_hermitian,
                  "so(3)": _old_proj_antisymmetric}


@pytest.mark.parametrize("name", sorted(MATRIX_MODULES))
def test_differentials_take_stacks_with_the_single_call_bits(name):
    cm = crossed_module(name)
    G, H = cm.G, cm.H
    rng = np.random.default_rng(11)
    n = 16

    def matrices(algebra):
        shape = (n, algebra.n, algebra.n)
        raw = rng.normal(size=shape) + (1j * rng.normal(size=shape)
                                        if algebra.dtype is complex else 0.0)
        return raw, np.array([algebra.random(rng) for _ in range(n)])

    gx, y = matrices(G.algebra)
    hx, x = matrices(H.algebra)
    g = np.array([G.random(rng) for _ in range(n)])
    for algebra, raw in ((G.algebra, gx), (H.algebra, hx)):
        stacked = algebra.project(raw)
        assert _bits(stacked) == _bits(np.array([algebra.project(m) for m in raw]))
        if algebra.name in OLD_PROJECTORS:
            old = OLD_PROJECTORS[algebra.name]
            assert _bits(stacked) == _bits(np.array([old(m.astype(algebra.dtype))
                                                     for m in raw]))
    for fn, args in ((cm.dt, (x,)), (cm.dalpha, (y, x)), (cm.act_algebra, (g, x)),
                     (G.exp, (y,))):
        assert _bits(fn(*args)) == _bits(np.array([fn(*row) for row in zip(*args)])), fn
    if name == "AUT(SU2)":
        assert _bits(cm.dt(x)) == _bits(np.array([_old_aut_dt(m) for m in x]))
        assert _bits(cm.dalpha(y, x)) == _bits(np.array([_old_aut_dalpha(*r)
                                                         for r in zip(y, x)]))


# ------------------------------------------------ counts and memory

def _counting(monkeypatch):
    import scipy.linalg
    counts = {"expm": 0, "expm_frechet": 0, "_expm_frechet_stack": 0}
    for module, name in ((scipy.linalg, "expm"), (scipy.linalg, "expm_frechet"),
                         (maps, "_expm_frechet_stack")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize("name", ["su2_charts.scn", "transitions_perturbed.scn"])
def test_a_transitions_run_exponentiates_once_per_point(name, monkeypatch, capsys):
    # g and g^-1 by one stacked expm of the run's one point stack, dg by one
    # stacked Frechet derivative per direction
    scn = load_scenario(name)
    counts = _counting(monkeypatch)
    cli.run(["transitions", "--scenario", name])
    capsys.readouterr()
    assert counts == {"expm": 1, "expm_frechet": 0, "_expm_frechet_stack": scn.dim}


# an ExpParamMap's one-point formulas, as they were before maps took stacks

def scalar_exp_map_at(gmap, point):
    return gmap.group.exp(gmap.exponent.at(point))


def scalar_exp_map_jac(gmap, point, direction):
    from scipy.linalg import expm_frechet
    X = gmap.exponent.at(point)
    dX = gmap.exponent.d().at(point, np.asarray(direction, dtype=float))
    return expm_frechet(X, dX)[1]


@pytest.mark.parametrize("name", sorted(MATRIX_MODULES))
def test_exp_maps_match_the_one_point_formulas(name):
    conn, exps, _ = MATRIX_MODULES[name]
    gmap = ExpParamMap.from_exprs(conn.cm.G, 2, exps)
    points, dirs = np.random.default_rng(10).uniform(-1.0, 1.0, size=(2, 9, 2))
    assert _bits(gmap.at_points(points)) == \
        _bits(np.array([scalar_exp_map_at(gmap, p) for p in points]))
    assert _bits(gmap.jac_points(points, dirs)) == \
        _bits(np.array([scalar_exp_map_jac(gmap, p, d) for p, d in zip(points, dirs)]))
    for p, d in zip(points[:3], dirs[:3]):
        assert _bits(gmap.at(tuple(p))) == _bits(scalar_exp_map_at(gmap, p))
        assert _bits(gmap.jac(tuple(p), d)) == _bits(scalar_exp_map_jac(gmap, p, d))


def test_a_map_keeps_the_values_of_its_last_point_stack_only():
    gmap = ExpParamMap.from_exprs(crossed_module("CONJ(SU2)").G, 2,
                                  ["sin(x1)", "x1 * x2", "0.3"])
    first, second = np.random.default_rng(5).uniform(-1, 1, size=(2, 7, 2))
    second = second[:5]
    for points in (first, second):
        g = gmap.at_points(points)
        dg = gmap.jac_points(points, np.broadcast_to([1.0, 0.0], points.shape))
        assert _bits(g) == _bits(np.array([scalar_exp_map_at(gmap, p) for p in points]))
        assert _bits(dg) == _bits(np.array([scalar_exp_map_jac(gmap, p, [1.0, 0.0])
                                            for p in points]))

    held = _held_arrays(gmap)
    assert held and all(len(a) == 5 for a in held)
    assert any(a is g for a in held) and any(a is dg for a in held)


def _held_arrays(obj):
    """Every array an object keeps in its attributes, through containers."""
    def arrays(value):
        if isinstance(value, np.ndarray):
            return [value]
        if isinstance(value, (tuple, list)):
            return [a for v in value for a in arrays(v)]
        if isinstance(value, dict):
            return [a for v in value.values() for a in arrays(v)]
        return []
    return arrays(list(vars(obj).values()))


def _counting_evaluations(monkeypatch):
    """Record each compile of expression code by source, each
    FormField.at_points call and each call of a StackedForm's function by
    form and the exact bytes of its stacks."""
    record = {"compiles": Counter(), "stacked": Counter(), "fields": []}
    real_compile, field_at_points = builtins.compile, FormField.at_points
    stacked_init = StackedForm.__init__

    def compile_(source, filename, *args, **kwargs):
        if filename == "<expr>":
            record["compiles"][source] += 1
        return real_compile(source, filename, *args, **kwargs)

    def at_points(self, *args):
        record["fields"].append(self)
        return field_at_points(self, *args)

    def init(self, algebra, degree, dim, fn):
        def counted(*stacks):
            record["stacked"][(self,) + tuple(s.tobytes() for s in stacks)] += 1
            return fn(*stacks)
        stacked_init(self, algebra, degree, dim, counted)

    monkeypatch.setattr(builtins, "compile", compile_)
    monkeypatch.setattr(FormField, "at_points", at_points)
    monkeypatch.setattr(StackedForm, "__init__", init)
    return record


def test_transitions_runs_compile_each_source_and_evaluate_each_stack_once(monkeypatch, capsys):
    # su2_charts starts from an empty compile table, as in a fresh process;
    # transitions_perturbed follows it and compiles only its own sources.
    # Counts: compiles, StackedForm evaluations, FormField evaluations
    want = {"su2_charts.scn": (16, 12, 19), "transitions_perturbed.scn": (5, 12, 19)}
    record = _counting_evaluations(monkeypatch)
    expr._code.cache_clear()
    for name, counts in want.items():
        for seen in record.values():
            seen.clear()
        cli.run(["transitions", "--scenario", name])
        capsys.readouterr()
        assert max(record["compiles"].values()) == 1, name
        assert max(record["stacked"].values()) == 1, name
        assert (sum(record["compiles"].values()), sum(record["stacked"].values()),
                len(record["fields"])) == counts, name


def _su2_left_chart():
    scn = load_scenario("su2_charts.scn")
    right = LocalConnection(scn.module, scn.forms["A"], scn.forms["B"])
    return transform_connection(scn.module, right, scn.gmap, scn.a_form)


def test_a_stacked_form_returns_its_functions_bits_read_only():
    left = _su2_left_chart()
    points = np.random.default_rng(3).uniform(0.1, 0.9, (6, 2))
    u, v = (np.broadcast_to(e, points.shape) for e in np.eye(2))
    for form, vectors in ((left.A, (u,)), (left.A, (v,)), (left.B, (u, v))):
        got = form.at_points(points, *vectors)
        assert form.at_points(points.copy(), *(np.array(w) for w in vectors)) is got
        assert _bits(got) == _bits(form._fn(points, *vectors))
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0] = 0.0
    # a fresh chart, never evaluated on these points before, has the same bits
    assert _bits(_su2_left_chart().B.at_points(points, u, v)) == _bits(got)


def test_a_stacked_form_keeps_the_values_of_its_last_point_stack_only():
    field = FormField.from_config(su2_algebra(), 1, 2, SU2_FIELD)
    calls = []

    def fn(points, v):
        calls.append(len(points))
        return field.at_points(points, v)

    form = StackedForm(field.algebra, 1, 2, fn)
    first, second = np.random.default_rng(5).uniform(-1, 1, size=(2, 7, 2))
    second = second[:5]
    for points in (first, second, first):
        for e in np.eye(2):
            for _ in range(2):
                got = form.at_points(points, np.broadcast_to(e, points.shape))
                assert _bits(got) == _bits(field.at_points(points, np.broadcast_to(e, points.shape)))
        held = _held_arrays(form)
        assert len(held) == 2 and all(len(a) == len(points) for a in held)
    assert calls == [7, 7, 5, 5, 7, 7]


def test_a_stacked_form_tells_signed_zeros_apart():
    algebra = su2_algebra()

    def fn(points, v):
        sign = np.copysign(1.0, points[:, 0]) * np.copysign(1.0, v[:, 0])
        return sign[:, None, None] * algebra.basis[0]

    form = StackedForm(algebra, 1, 2, fn)
    got = [form.at_points(np.array([[x, 0.5]]), np.array([[e, 1.0]]))[0]
           for x, e in product((0.0, -0.0), repeat=2)]
    assert [_bits(g) for g in got] == [_bits(sign * algebra.basis[0])
                                       for sign in (1.0, -1.0, -1.0, 1.0)]


# ------------------------------------------------ the stacked Frechet derivative

def _frechet_order(a):
    """expm_frechet's Pade order m and scaling s of one matrix."""
    import scipy.linalg
    norm = scipy.linalg.norm(a, 1)
    for m in (3, 5, 7, 9):
        if norm <= groups._FRECHET_ELL[m]:
            return m, 0
    return 13, max(0, int(np.ceil(np.log2(norm / groups._FRECHET_ELL[13]))))


def _recorded(call):
    """call's result and the warnings it raised, each recorded ("always")."""
    with warnings.catch_warnings(record=True) as records:
        warnings.simplefilter("always")
        result = call()
    return result, [(w.category, str(w.message)) for w in records]


def _frechet_draws(n, dtype, count, scales, seed):
    """count random pairs (A, E) of n x n matrices, the norms of A spread
    log-uniformly over `scales`."""
    rng = np.random.default_rng(seed)
    shape = (count, n, n)
    A = rng.normal(size=shape)
    E = rng.normal(size=shape)
    if dtype is complex:
        A = A + 1j * rng.normal(size=shape)
        E = E + 1j * rng.normal(size=shape)
    return A * np.geomspace(*scales, count)[rng.permutation(count), None, None], E


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_stacked_frechet_derivative_has_the_expm_frechet_bits(n, dtype):
    import scipy.linalg
    # 360 pairs in one stack that mixes every Pade order and scaling, from
    # 1-norms of 1e-9 to 3000: the largest squarings overflow
    A, E = _frechet_draws(n, dtype, 360, (1e-9, 3000.0), seed=20 + n)
    orders = [_frechet_order(a) for a in A]
    assert {m for m, _ in orders} == {3, 5, 7, 9, 13}
    assert {s for _, s in orders} >= set(range(4))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        want = np.array([scipy.linalg.expm_frechet(a, e)[1] for a, e in zip(A, E)])
        got = groups._expm_frechet_stack(A, E)
        alone = np.array([groups._expm_frechet_stack(a[None], e[None])[0]
                          for a, e in zip(A[:20], E[:20])])
    assert not np.isfinite(want).all()
    assert _bits(got) == _bits(want)
    assert _bits(alone) == _bits(want[:20])


def test_the_stacked_frechet_derivative_takes_the_1_norm_of_scipy_linalg_norm():
    import scipy.linalg
    # complex 2x2 matrices scaled onto each bound of the order and scaling
    # choice, where the sum of np.abs moduli and the 1-norm of
    # scipy.linalg.norm (LAPACK's moduli) fall on either side of the bound
    rng = np.random.default_rng(50)
    bounds = [groups._FRECHET_ELL[m] for m in (3, 5, 7, 9)] \
        + [groups._FRECHET_ELL[13] * 2.0 ** k for k in range(3)]
    straddling = []
    for bound in bounds:
        found = []
        for _ in range(40):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            c = bound / scipy.linalg.norm(a, 1)
            found += [b for b in (a * (c + k * np.spacing(c)) for k in range(-3, 4))
                      if (scipy.linalg.norm(b, 1) <= bound)
                      != (np.abs(b).sum(axis=0).max() <= bound)]
        assert found, bound
        straddling += found[:4]
    A = np.array(straddling)
    E = rng.normal(size=A.shape) + 1j * rng.normal(size=A.shape)
    want = np.array([scipy.linalg.expm_frechet(a, e)[1] for a, e in zip(A, E)])
    assert _bits(groups._expm_frechet_stack(A, E)) == _bits(want)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["A", "E"])
def test_the_stacked_frechet_derivative_refuses_what_expm_frechet_refuses(where, value):
    import scipy.linalg
    A, E = _frechet_draws(2, complex, 4, (0.1, 10.0), seed=30)
    (A if where == "A" else E)[2, 1, 0] = value
    with pytest.raises(ValueError) as want:
        for a, e in zip(A, E):
            scipy.linalg.expm_frechet(a, e)
    with pytest.raises(ValueError) as got:
        groups._expm_frechet_stack(A, E)
    assert str(got.value) == str(want.value) == "array must not contain infs or NaNs"


def test_a_right_hand_side_that_overflows_is_refused_as_lu_solve_refuses_it():
    import scipy.linalg
    # finite inputs, but A E + E A overflows, and lu_solve refuses its
    # second right-hand side
    A = np.array([np.eye(2), 3 * np.eye(2)])
    E = np.array([np.ones((2, 2)), np.full((2, 2), 1e308)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ValueError) as want:
            for a, e in zip(A, E):
                scipy.linalg.expm_frechet(a, e)
        with pytest.raises(ValueError) as got:
            groups._expm_frechet_stack(A, E)
    assert str(got.value) == str(want.value) == "array must not contain infs or NaNs"


def test_an_exactly_singular_pade_denominator_warns_as_lu_factor_does(monkeypatch):
    import scipy.linalg
    # no finite A makes V - U singular at scipy's coefficients, so the order 3
    # coefficients become (0, 0, 1, 0): U = 0 and V - U = A^2, singular at
    # the second matrix, whose solve then gives NaN
    monkeypatch.setitem(groups._FRECHET_PADE, 3, (0.0, 0.0, 1.0, 0.0))
    A = np.array([np.diag([1e-3, 2e-3]), np.diag([1e-3, 0.0])])
    E = np.ones((2, 2, 2))
    lu, lu_factor_warned = _recorded(lambda: scipy.linalg.lu_factor(A[1] @ A[1]))
    with pytest.raises(ValueError) as want:
        scipy.linalg.lu_solve(lu, np.full(2, np.nan))
    with warnings.catch_warnings(record=True) as records:
        warnings.simplefilter("always")
        with pytest.raises(ValueError) as got:
            groups._expm_frechet_stack(A, E)
    singular = [(w.category, str(w.message)) for w in records
                if issubclass(w.category, scipy.linalg.LinAlgWarning)]
    assert singular == lu_factor_warned == [
        (scipy.linalg.LinAlgWarning, "Diagonal number 2 is exactly zero. Singular matrix.")]
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_overflowing_squarings_warn_as_expm_frechet_does(n, dtype):
    import scipy.linalg
    # the same kinds of warning; they name the numpy routine that raised
    # them, which for expm_frechet is always `dot`
    A, E = _frechet_draws(n, dtype, 12, (1000.0, 3000.0), seed=40 + n)
    want, want_warned = _recorded(
        lambda: np.array([scipy.linalg.expm_frechet(a, e)[1] for a, e in zip(A, E)]))
    got, got_warned = _recorded(lambda: groups._expm_frechet_stack(A, E))

    def kinds(warned):
        return {(category, message.split(" in ")[0]) for category, message in warned}

    assert not np.isfinite(want).all()
    assert _bits(got) == _bits(want)
    assert kinds(got_warned) == kinds(want_warned)
    assert (RuntimeWarning, "overflow encountered") in kinds(got_warned)


def _per_point_jac_points(self, points, directions):
    # ExpParamMap.jac_points as it was: one expm_frechet per point
    from scipy.linalg import expm_frechet
    X = self.exponent.at_points(points)
    dX = self._dexponent.at_points(points, directions)
    return np.array([expm_frechet(x, dx)[1] for x, dx in zip(X, dX)])


def test_a_transitions_run_through_the_scaling_branch_prints_the_per_point_report(
        tmp_path, monkeypatch, capsys):
    # exponents up to 3000 take every Jacobian through Pade order 13 with
    # up to 10 squarings, which no shipped scenario reaches
    with open(find_scenario("transitions_perturbed.scn")) as f:
        scn = json.load(f)
    scn["transition"]["g"] = ["3000 * x1", "0.2 * x2", "0.1 * x1 * x2"]
    path = tmp_path / "steep.scn"
    path.write_text(json.dumps(scn))
    orders = []
    pade = groups._frechet_pade
    monkeypatch.setattr(groups, "_frechet_pade",
                        lambda m, a, *rest: orders.append(m) or pade(m, a, *rest))
    outputs = []
    for _ in range(2):
        code = cli.run(["transitions", "--scenario", str(path)])
        outputs.append((code, capsys.readouterr().out))
        monkeypatch.setattr(ExpParamMap, "jac_points", _per_point_jac_points)
    assert 13 in orders
    assert outputs[0] == outputs[1]
