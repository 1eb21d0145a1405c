import numpy as np
import pytest
from scipy.linalg import expm

from twogauge.crossed import crossed_module
from twogauge.errors import ConfigError, GeometryError
from twogauge.forms import FormField, PointwiseForm
from twogauge.geometry import Bigon, Path, Reparam, shipped_bigon, shipped_path
from twogauge.maps import ConstantMap, ExpParamMap, NumericalMap
from twogauge.report import NO_SAMPLES, SKIPPED
from twogauge.scenario import scenario_from_dict
from twogauge.transport import (
    LocalConnection, check_transition_laws, check_transition_laws_plain,
    check_triple_overlap, convergence_study, fake_flat_connection,
    fake_residual_on_bigon, grids_errors, holonomy_product, kernel_check, path_holonomy,
    _rk4, surface_holonomy, transform_connection,
)

SU2 = crossed_module("CONJ(SU2)")
GERBE = crossed_module("GERBE(U1)")

# one fake-flat reference connection shared by most surface tests
FIELD_A = FormField.from_config(SU2.G.algebra, 1, 2, {
    "1,1": "x2", "2,2": "sin(x1)", "3,1": "x1 * x2"})
CONN = fake_flat_connection(SU2, FIELD_A)

_surface_cache = {}


def square_result(grid):
    if grid not in _surface_cache:
        _surface_cache[grid] = surface_holonomy(
            CONN, shipped_bigon("unit-square"), grid=grid)
    return _surface_cache[grid]


def sample_points(dim, n=10, lo=0.1, hi=0.9, seed=7):
    rng = np.random.default_rng(seed)
    return [tuple(p) for p in rng.uniform(lo, hi, size=(n, dim))]


# ----------------------------------------------------------------- path level

def test_constant_field_transports_to_exponential():
    # W' = -A0 W along the unit x-segment integrates in closed form
    A0 = np.array([[0.3j, 0.1], [-0.1, -0.3j]])
    A = FormField.constant(SU2.G.algebra, 1, 2, {(0,): A0})
    W = path_holonomy(SU2, A, shipped_path("segment-x"))
    assert np.linalg.norm(W - expm(-A0)) < 1e-10


def test_concatenation_multiplies_in_reverse_order():
    legs = [Path.line((0.0, 0.0), (0.0, 1.0)),
            Path.line((0.0, 1.0), (1.0, 1.0)),
            Path.line((1.0, 1.0), (1.0, 0.0))]
    whole = legs[0].compose(legs[1]).compose(legs[2])
    Ws = [path_holonomy(SU2, FIELD_A, p) for p in legs]
    Wc = path_holonomy(SU2, FIELD_A, whole, steps=2000)
    assert np.linalg.norm(Wc - Ws[2] @ Ws[1] @ Ws[0]) < 1e-6
    assert np.linalg.norm(Wc - holonomy_product(SU2.G, Ws)) < 1e-6


def test_holonomy_ignores_parametrization():
    pi = shipped_path("pi-detour")
    W1 = path_holonomy(SU2, FIELD_A, pi)
    W2 = path_holonomy(SU2, FIELD_A, pi.reparametrize(Reparam.power_of_sitting(2)))
    assert np.linalg.norm(W1 - W2) < 1e-6


def test_reversed_path_transports_to_inverse():
    pi = shipped_path("pi-detour")
    W = path_holonomy(SU2, FIELD_A, pi)
    Wr = path_holonomy(SU2, FIELD_A, pi.reverse())
    assert np.linalg.norm(Wr @ W - np.eye(2)) < 1e-8


def test_integrator_is_fourth_order():
    study = convergence_study(SU2, FIELD_A, shipped_path("pi-detour"))
    assert study["grids"] == [8, 16, 32, 64]
    assert all(b < a for a, b in zip(study["errors"], study["errors"][1:]))
    assert abs(study["order"] - 4.0) < 0.5


@pytest.mark.parametrize("grids", [(4, 4), (4,), (), (1, 4), (4, True), [4, 8.0]])
def test_convergence_needs_two_distinct_step_counts(grids, recwarn):
    # one rule for the library and the scenario loader: no one-point fit
    with pytest.raises(ConfigError) as exc:
        convergence_study(SU2, FIELD_A, shipped_path("pi-detour"), grids=grids)
    assert str(exc.value) == grids_errors(grids)[0] and not recwarn.list
    with pytest.raises(ConfigError) as loaded:
        scenario_from_dict({"crossed_module": "CONJ(SU2)", "grids": list(grids)})
    assert str(loaded.value) == grids_errors(list(grids))[0]


M_CONST = np.array([[0.7j, 0.9 + 0.4j], [-0.9 + 0.4j, -0.7j]])


@pytest.mark.parametrize("right", [False, True])
def test_rk4_on_a_constant_field_is_the_exponential(right):
    # the stepper alone, as the t-integration uses it: Y' = M Y or Y' = Y M
    # with M constant both give expm(M), at fourth order in the step
    grids = [8, 16, 32]
    errors = []
    for n in grids:
        Ys = _rk4(SU2.G, [M_CONST] * (n + 1), [M_CONST] * n, 1.0 / n, right=right)
        assert len(Ys) == n + 1 and np.array_equal(Ys[0], np.eye(2))
        errors.append(float(np.linalg.norm(Ys[-1] - expm(M_CONST))))
    assert errors[-1] < 1e-6
    order = -np.polyfit(np.log(grids), np.log(errors), 1)[0]
    assert abs(order - 4.0) < 0.5


def test_rk4_right_mode_multiplies_on_the_right():
    # for non-commuting M(s), Y' = M Y and Z' = -Z M give Z = Y^-1, while
    # Y' = Y M gives a different element
    M0 = M_CONST
    M1 = np.array([[-0.5j, 0.2], [-0.2, 0.5j]])
    n = 64
    nodes = [M0 + (k / n) * M1 for k in range(n + 1)]
    mids = [M0 + ((k + 0.5) / n) * M1 for k in range(n)]
    left = _rk4(SU2.G, nodes, mids, 1.0 / n)[-1]
    inverse = _rk4(SU2.G, [-M for M in nodes], [-M for M in mids], 1.0 / n,
                   right=True)[-1]
    swapped = _rk4(SU2.G, nodes, mids, 1.0 / n, right=True)[-1]
    assert np.linalg.norm(inverse @ left - np.eye(2)) < 1e-8
    assert np.linalg.norm(swapped - left) > 1e-2


def test_transport_needs_a_matrix_group():
    s3 = crossed_module("CONJ(S3)")
    with pytest.raises(GeometryError):
        path_holonomy(s3, FIELD_A, shipped_path("segment-x"))


def test_trivial_base_group_short_circuits():
    A = FormField.zero(GERBE.G.algebra, 1, 2)
    W = path_holonomy(GERBE, A, shipped_path("circle-arc"))
    assert W.shape == (1, 1) and W[0, 0] == 1.0


# -------------------------------------------------------------- surface level

def test_abelian_surface_element_matches_area_integral():
    """Independent oracle: with trivial base group the surface element is the
    exponential of the plain double integral of the pulled-back 2-form."""
    B = FormField.from_config(GERBE.H.algebra, 2, 2, {"1,12": "x1 + 2 * x2"})
    conn = LocalConnection(GERBE, FormField.zero(GERBE.G.algebra, 1, 2), B)
    sq = shipped_bigon("unit-square")
    res = surface_holonomy(conn, sq, grid=128)

    # oracle: composite 2D Simpson of the coefficient times the Jacobian
    N = 128
    xs = np.linspace(0.0, 1.0, 2 * N + 1)
    w = np.ones(2 * N + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    w *= (1.0 / (2 * N)) / 3.0

    def pulled(s, t):
        p, u, v = sq.value(s, t), sq.d_s(s, t), sq.d_t(s, t)
        return (p[0] + 2.0 * p[1]) * (u[0] * v[1] - u[1] * v[0])

    vals = np.array([[pulled(s, t) for s in xs] for t in xs])
    integral = float(w @ vals @ w)
    assert np.linalg.norm(res.h - np.exp(-1j * integral)) < 1e-6
    assert res.flat


def test_flat_surface_satisfies_target_law():
    # t(h) g_source must reproduce the transport along the target path
    d32 = square_result(32).target_defect
    d64 = square_result(64).target_defect
    assert d64 < 1e-4
    # regression guard: integrating the outer equation with the factors in
    # the wrong order leaves a grid-independent O(0.1) defect, while the
    # correct order converges at fourth order
    assert d64 < 0.25 * d32


def test_surface_grid_must_be_positive():
    for grid in (0, -3):
        with pytest.raises(GeometryError):
            surface_holonomy(CONN, shipped_bigon("unit-square"), grid=grid)


def test_nonflat_connection_is_flagged_and_breaks_the_law():
    zero_B = FormField.zero(SU2.H.algebra, 2, 2)
    res = surface_holonomy(LocalConnection(SU2, FIELD_A, zero_B),
                           shipped_bigon("unit-square"), grid=32)
    assert not res.flat
    assert res.fake_residual > 1.0
    assert res.target_defect > 1e-2


def test_vertical_pasting_matches_the_cell_rule():
    lower = surface_holonomy(CONN, shipped_bigon("half-square-lower"), grid=48)
    upper = surface_holonomy(CONN, shipped_bigon("half-square-upper"), grid=48)
    whole = square_result(48)
    stacked = lower.cell.vertical(upper.cell, tol=1e-3)
    assert np.linalg.norm(stacked.g - whole.cell.g) < 1e-6
    assert np.linalg.norm(stacked.h - whole.cell.h) < 1e-3


def test_horizontal_pasting_reverses_like_paths():
    sq = shipped_bigon("unit-square")
    shift = np.array([1.0, 0.0])
    sq2 = Bigon(lambda s, t: sq.value(s, t) + shift, sq.d_s, sq.d_t, 2)
    wide = sq.horizontal(sq2)
    c1 = square_result(64).cell
    c2 = surface_holonomy(CONN, sq2, grid=64).cell
    cw = surface_holonomy(CONN, wide, grid=64).cell
    assert np.linalg.norm(cw.h - c2.horizontal(c1).h) < 5e-3
    # the other order is not merely less accurate, it is the wrong law
    assert np.linalg.norm(cw.h - c1.horizontal(c2).h) > 0.1


def test_degenerate_sliver_transports_trivially():
    res = surface_holonomy(CONN, shipped_bigon("thin-sliver"), grid=32)
    assert np.linalg.norm(res.h - SU2.H.identity) < 1e-8
    assert res.target_defect < 1e-8


def test_surface_element_ignores_height_parametrization():
    base = square_result(48)
    warped = shipped_bigon("unit-square").reparametrize_t(
        Reparam.power_of_sitting(2))
    res = surface_holonomy(CONN, warped, grid=48)
    assert np.linalg.norm(base.h - res.h) < 2e-4


def test_surface_element_ignores_width_parametrization():
    base = square_result(64)
    cubic = Reparam.from_expr("x1 ^ 2 * (3 - 2 * x1)")
    res = surface_holonomy(CONN, shipped_bigon("unit-square").reparametrize_s(cubic),
                           grid=64)
    assert np.linalg.norm(base.h - res.h) < 2e-4


def test_fake_residual_sampling():
    assert fake_residual_on_bigon(CONN, shipped_bigon("unit-square")) < 1e-10
    zero_B = FormField.zero(SU2.H.algebra, 2, 2)
    bad = LocalConnection(SU2, FIELD_A, zero_B)
    assert fake_residual_on_bigon(bad, shipped_bigon("unit-square")) > 1.0


def test_connection_construction_guards():
    with pytest.raises(GeometryError):
        LocalConnection(SU2, CONN.B, CONN.B)  # degrees swapped
    B3 = FormField.zero(SU2.H.algebra, 2, 3)
    with pytest.raises(GeometryError):
        LocalConnection(SU2, FIELD_A, B3)  # dimension mismatch
    with pytest.raises(GeometryError):
        fake_flat_connection(GERBE, FormField.zero(GERBE.G.algebra, 1, 2))
    flat_sheet = Bigon(lambda s, t: np.array([s, t, 0.0]),
                       lambda s, t: np.array([1.0, 0.0, 0.0]),
                       lambda s, t: np.array([0.0, 1.0, 0.0]), 3)
    with pytest.raises(GeometryError):
        surface_holonomy(CONN, flat_sheet, grid=4)


# ------------------------------------------------------------ gauge relations

def _chart_change():
    gmap = ExpParamMap.from_exprs(SU2.G, 2,
                                  ["0.3 * x1", "0.2 * x2", "0.1 * x1 * x2"])
    a_form = FormField.from_config(SU2.H.algebra, 1, 2,
                                   {"1,1": "0.2 * x2", "2,2": "0.1 * x1"})
    return gmap, a_form


def _oracle_transform(conn, gmap, a_form):
    """Hand-written gauge transform, kept independent of the library route.

    Uses the conjugation form of the action and builds the overlap curvature
    term by term: da + [a,a] + bracket against the transformed base field.
    """
    da = a_form.d()

    def A_fn(p, v):
        g = gmap.at(p)
        gi = SU2.G.inv(g)
        return g @ conn.A.at(p, v) @ gi - gmap.jac(p, v) @ gi - a_form.at(p, v)

    def B_fn(p, u, v):
        g = gmap.at(p)
        gi = SU2.G.inv(g)
        au, av = a_form.at(p, u), a_form.at(p, v)
        Au, Av = A_fn(p, u), A_fn(p, v)
        k = (np.asarray(da.at(p, u, v)) + (au @ av - av @ au)
             + (Au @ av - av @ Au) - (Av @ au - au @ Av))
        return g @ conn.B.at(p, u, v) @ gi + k

    return LocalConnection(SU2, PointwiseForm(SU2.G.algebra, 1, 2, A_fn),
                           PointwiseForm(SU2.H.algebra, 2, 2, B_fn))


def test_transition_laws_hold_for_constructed_charts():
    gmap, a_form = _chart_change()
    left = _oracle_transform(CONN, gmap, a_form)
    rep = check_transition_laws(SU2, left, CONN, gmap, a_form, sample_points(2))
    assert rep.passed
    assert rep.max_residual < 1e-9


def test_transition_laws_detect_percent_level_perturbations():
    gmap, a_form = _chart_change()
    left = _oracle_transform(CONN, gmap, a_form)
    pts = sample_points(2)
    rep_a = check_transition_laws(SU2, left, CONN, gmap, a_form.scaled(1.01), pts)
    assert not rep_a.passed and rep_a.max_residual > 1e-3
    g_off = ExpParamMap.from_exprs(SU2.G, 2,
                                   ["0.31 * x1", "0.2 * x2", "0.1 * x1 * x2"])
    rep_g = check_transition_laws(SU2, left, CONN, g_off, a_form, pts)
    assert not rep_g.passed and rep_g.max_residual > 1e-3


def test_plain_law_is_the_zero_shift_special_case():
    gmap, _ = _chart_change()

    def A_fn(p, v):
        g = gmap.at(p)
        gi = SU2.G.inv(g)
        return g @ CONN.A.at(p, v) @ gi - gmap.jac(p, v) @ gi

    def B_fn(p, u, v):
        g = gmap.at(p)
        return g @ CONN.B.at(p, u, v) @ SU2.G.inv(g)

    left = LocalConnection(SU2, PointwiseForm(SU2.G.algebra, 1, 2, A_fn),
                           PointwiseForm(SU2.H.algebra, 2, 2, B_fn))
    rep = check_transition_laws_plain(SU2, left, CONN, gmap, sample_points(2))
    assert rep.passed
    assert rep.max_residual < 1e-9


def test_transform_connection_round_trips_through_checker():
    gmap, a_form = _chart_change()
    left = transform_connection(SU2, CONN, gmap, a_form)
    rep = check_transition_laws(SU2, left, CONN, gmap, a_form, sample_points(2))
    assert rep.passed


def _triple_data():
    g_ij, _ = _chart_change()
    a_jk = FormField.from_config(SU2.H.algebra, 1, 2,
                                 {"3,2": "0.3 * x1", "1,1": "0.1"})
    a_ik = FormField.from_config(SU2.H.algebra, 1, 2,
                                 {"2,1": "x2 * x2", "3,2": "0.2"})
    hmap = ExpParamMap.from_exprs(SU2.H, 2, ["0.2 * x2", "0.1 * x1", "0"])
    return g_ij, a_jk, a_ik, hmap


def test_triple_overlap_law_constructed_case():
    """Solve the law for a_ij with finite differences and the conjugation
    closed form, then let the checker verify it with its exact routes."""
    g_ij, a_jk, a_ik, hmap = _triple_data()
    h_num = NumericalMap(SU2.H, hmap.at, 2)

    def a_ij_fn(p, v):
        h = hmap.at(p)
        hi = SU2.H.inv(h)
        y = np.asarray(FIELD_A.at(p, v))
        return (h @ np.asarray(a_ik.at(p, v)) @ hi
                + h_num.jac(p, v) @ hi
                + (y - h @ y @ hi)
                - SU2.act_algebra(g_ij.at(p), a_jk.at(p, v)))

    a_ij = PointwiseForm(SU2.H.algebra, 1, 2, a_ij_fn)
    pts = sample_points(2)
    rep = check_triple_overlap(SU2, a_ij, a_jk, a_ik, g_ij, hmap, FIELD_A,
                               pts, tol=1e-7)
    assert rep.passed
    assert rep.max_residual < 1e-7

    rep_bad = check_triple_overlap(SU2, a_ij, a_jk, a_ik.scaled(1.01), g_ij,
                                   hmap, FIELD_A, pts, tol=1e-7)
    assert not rep_bad.passed and rep_bad.max_residual > 1e-3


def test_triple_overlap_reduces_to_addition_for_trivial_h():
    g_ij, a_jk, _, _ = _triple_data()
    a_ij = FormField.from_config(SU2.H.algebra, 1, 2, {"1,2": "x1"})

    def a_ik_fn(p, v):
        return np.asarray(a_ij.at(p, v)) + SU2.act_algebra(g_ij.at(p),
                                                           a_jk.at(p, v))

    a_ik = PointwiseForm(SU2.H.algebra, 1, 2, a_ik_fn)
    h_id = ConstantMap(SU2.H, SU2.H.identity, 2)
    rep = check_triple_overlap(SU2, a_ij, a_jk, a_ik, g_ij, h_id, FIELD_A,
                               sample_points(2))
    assert rep.passed
    assert rep.max_residual < 1e-12


# -------------------------------------------------------------- kernel images

def test_boundary_of_three_curvature_vanishes_when_fake_flat():
    A3 = FormField.from_config(SU2.G.algebra, 1, 3, {
        "1,1": "x2 * x3", "2,2": "sin(x1)", "3,3": "x1 * x2", "1,3": "x2 ^ 2"})
    conn = fake_flat_connection(SU2, A3)
    pts = sample_points(3, n=50, lo=-1.0, hi=1.0, seed=42)
    rep = kernel_check(conn, pts)
    assert rep.passed
    assert rep.max_residual < 1e-8

    spoiled = conn.B + FormField.from_config(SU2.H.algebra, 2, 3, {"1,12": "x3"})
    rep_bad = kernel_check(LocalConnection(SU2, A3, spoiled), pts)
    assert not rep_bad.passed
    assert rep_bad.max_residual > 1e-3


def test_no_sample_points_skip_the_triple_overlap_and_kernel_checks():
    # zero points evaluate zero cases: SKIPPED, as check_transition_laws reports
    g_ij, a_jk, a_ik, hmap = _triple_data()
    A3 = FormField.from_config(SU2.G.algebra, 1, 3, {"1,1": "x2 * x3", "2,2": "sin(x1)"})
    conn = fake_flat_connection(SU2, A3)
    for points in (sample_points(2)[:0], np.asarray(sample_points(2))[:0]):
        rep = check_triple_overlap(SU2, a_jk, a_jk, a_ik, g_ij, hmap, FIELD_A, points)
        assert [(c.name, c.verdict, c.detail, c.residual) for c in rep.checks] \
            == [("shift-cocycle", SKIPPED, NO_SAMPLES, None)]
    for points in (sample_points(3)[:0], np.asarray(sample_points(3))[:0]):
        rep = kernel_check(conn, points)
        assert [(c.name, c.verdict, c.detail, c.residual) for c in rep.checks] \
            == [("dt-of-3-curvature", SKIPPED, NO_SAMPLES, None)]
