"""Batched surface and path transport against the point-by-point loops.

The oracles below are the row-by-row sweep and the per-node path loop that
transport used before rows were swept together: scalar geometry, `at` per
point, one `_rk4` per row. The gauge transform, Maurer-Cartan form, action
wedge, transition-law and triple-overlap checks and `max_abs_on_grid` have
their per-point loops here too, as they were before forms took point
stacks, and so do the one-point formulas of an ExpParamMap. Every
comparison is bitwise.
"""

from itertools import combinations

import numpy as np
import pytest

import twogauge.transport as transport
from twogauge import cli
from twogauge.crossed import crossed_module
from twogauge.errors import EvalError
from twogauge.expr import evaluate, parse
from twogauge.forms import FormField, PointwiseForm, square_wedge
from twogauge.geometry import (
    BIGON_FIXTURES, PATH_FIXTURES, Bigon, Path, Reparam, shipped_bigon, shipped_path,
)
from twogauge.groups import _SIGMA, su2_algebra
from twogauge.scenario import load_scenario
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
            Ws = _rk4(G, [-np.asarray(conn.A.at(*pu)) for pu in pts],
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
    k_el = _rk4(H, b_nodes, b_mids, ht, right=True)[-1]
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
    return _rk4(group, nodes, mids, h)[-1]


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
    for conn_name in ("su2_charts", "AUT(SU2)", "CONJ(U1)"):
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
    worst = 0.0
    tuples = list(combinations(np.eye(form.dim), form.degree))
    for p in points:
        for vs in tuples:
            worst = max(worst, float(np.linalg.norm(form.at(p, *vs))))
    return worst


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
    # NaN at the points with x1 = 0, where 1e999 * x1 is inf * 0
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
    counts = {"expm": 0, "expm_frechet": 0}
    for name in counts:
        def counted(*args, _fn=getattr(scipy.linalg, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(scipy.linalg, name, counted)
    return counts


@pytest.mark.parametrize("name", ["su2_charts.scn", "transitions_perturbed.scn"])
def test_a_transitions_run_exponentiates_once_per_point(name, monkeypatch, capsys):
    # g and g^-1 by one stacked expm of the run's one point stack, dg once
    # per point and direction
    scn = load_scenario(name)
    counts = _counting(monkeypatch)
    cli.run(["transitions", "--scenario", name])
    capsys.readouterr()
    assert counts == {"expm": 1, "expm_frechet": scn.samples * scn.dim}


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

    def arrays(value):
        if isinstance(value, np.ndarray):
            return [value]
        if isinstance(value, (tuple, list)):
            return [a for v in value for a in arrays(v)]
        if isinstance(value, dict):
            return [a for v in value.values() for a in arrays(v)]
        return []

    held = arrays(list(vars(gmap).values()))
    assert held and all(len(a) == 5 for a in held)
    assert any(a is g for a in held) and any(a is dg for a in held)
