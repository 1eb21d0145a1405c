"""Batched surface and path transport against the point-by-point loops.

The oracles below are the row-by-row sweep and the per-node path loop that
transport used before rows were swept together: scalar geometry, `at` per
point, one `_rk4` per row. Every comparison is bitwise.
"""

import numpy as np
import pytest

import twogauge.transport as transport
from twogauge.crossed import crossed_module
from twogauge.errors import EvalError
from twogauge.expr import evaluate, parse
from twogauge.forms import FormField
from twogauge.geometry import (
    BIGON_FIXTURES, PATH_FIXTURES, Bigon, Path, Reparam, shipped_bigon, shipped_path,
)
from twogauge.scenario import load_scenario
from twogauge.transport import (
    LocalConnection, SurfaceResult, _rk4, fake_flat_connection, fake_residual_on_bigon,
    path_holonomy, surface_holonomy, transform_connection,
)
from twogauge.twocells import TwoCell
from twogauge.maps import ExpParamMap

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

def scalar_fake_residual(conn, bigon, samples=9):
    worst = 0.0
    fake = conn.fake_curvature() if conn.is_symbolic else None
    for s in np.linspace(0.05, 0.95, samples):
        for t in np.linspace(0.05, 0.95, samples):
            p = bigon.value(s, t)
            u, v = bigon.d_s(s, t), bigon.d_t(s, t)
            val = fake.at(tuple(p), u, v) if fake is not None \
                else conn.fake_curvature_at(p, u, v)
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


def test_pointwise_connection_matches_the_row_loop():
    # a gauge transform has numerical components only: forms are sampled
    # point by point and the fake gate uses fake_curvature_at
    cm = crossed_module("CONJ(SU2)")
    gmap = ExpParamMap.from_exprs(cm.G, 2, ["0.3 * x1", "0.2 * x2", "0.1 * x1 * x2"])
    a_form = FormField.from_config(cm.H.algebra, 1, 2, {"1,1": "0.2 * x2"})
    conn = transform_connection(cm, CONNECTIONS["su2_charts"], gmap, a_form)
    assert not conn.is_symbolic
    assert_same_surface(surface_holonomy(conn, BIGONS["unit-square"], grid=2),
                        scalar_surface_holonomy(conn, BIGONS["unit-square"], 2))


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
