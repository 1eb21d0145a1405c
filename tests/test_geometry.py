import math

import numpy as np
import pytest

from twogauge.errors import CompositionError, GeometryError
from twogauge.geometry import (
    BIGON_FIXTURES, PATH_FIXTURES, Bigon, Path, Reparam, ramp, ramp_derivative,
    shipped_bigon, shipped_path, smooth_step, smooth_step_derivative,
)


def test_smooth_step_profile():
    assert smooth_step(-1.0) == 0.0
    assert smooth_step(0.0) == 0.0
    assert smooth_step(1.0) == 1.0
    assert smooth_step(0.5) == pytest.approx(0.5)
    vals = [smooth_step(u) for u in np.linspace(0, 1, 33)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    # derivative against central differences
    for u in [0.2, 0.5, 0.77]:
        h = 1e-6
        fd = (smooth_step(u + h) - smooth_step(u - h)) / (2 * h)
        assert smooth_step_derivative(u) == pytest.approx(fd, abs=1e-7)
    assert smooth_step_derivative(0.0) == 0.0
    assert smooth_step_derivative(1.0) == 0.0


def test_ramp_sits_on_margins():
    for s in [0.0, 0.05, 0.1]:
        assert ramp(s) == 0.0 and ramp_derivative(s) == 0.0
    for s in [0.9, 0.95, 1.0]:
        assert ramp(s) == 1.0 and ramp_derivative(s) == 0.0
    assert 0.0 < ramp(0.5) < 1.0


def test_line_path_endpoints_velocity():
    p = Path.line((0.0, 0.0), (2.0, 1.0))
    assert np.allclose(p.start, [0, 0])
    assert np.allclose(p.end, [2, 1])
    worst, ok = p.certify_sitting()
    assert ok, worst
    # velocity parallel to the segment
    v = p.velocity(0.5)
    assert abs(v[0] * 1.0 - v[1] * 2.0) < 1e-12


def test_from_exprs_matches_line():
    p = Path.from_exprs(["2 * x1", "x1"])
    q = Path.line((0.0, 0.0), (2.0, 1.0))
    for s in np.linspace(0, 1, 11):
        assert np.allclose(p.value(s), q.value(s), atol=1e-12)
        assert np.allclose(p.velocity(s), q.velocity(s), atol=1e-12)


def test_velocity_matches_finite_differences():
    p = Path.from_exprs(["sin(x1)", "x1 ^ 2", "exp(x1)"])
    h = 1e-6
    for s in [0.2, 0.5, 0.83]:
        fd = (p.value(s + h) - p.value(s - h)) / (2 * h)
        assert np.allclose(p.velocity(s), fd, atol=1e-7)


def test_concatenation_order_and_seam():
    p1 = Path.line((0.0, 0.0), (1.0, 0.0))
    p2 = Path.line((1.0, 0.0), (1.0, 1.0))
    c = p1.compose(p2)
    # first half traces p1, second half p2
    assert np.allclose(c.value(0.25), p1.value(0.5))
    assert np.allclose(c.value(0.75), p2.value(0.5))
    assert np.allclose(c.value(0.5), [1, 0])
    assert np.allclose(c.velocity(0.5), 0.0)
    assert np.allclose(c.start, [0, 0]) and np.allclose(c.end, [1, 1])


def test_concatenation_needs_shared_junction():
    p1 = Path.line((0.0, 0.0), (1.0, 0.0))
    p3 = Path.line((2.0, 0.0), (3.0, 0.0))
    with pytest.raises(CompositionError) as ei:
        p1.compose(p3)
    assert ei.value.source is not None


def test_reverse():
    p = shipped_path("circle-arc")
    q = p.reverse()
    for s in np.linspace(0, 1, 7):
        assert np.allclose(q.value(s), p.value(1 - s))
        assert np.allclose(q.velocity(s), -p.velocity(1 - s))


def test_reparametrize_preserves_track():
    p = shipped_path("circle-arc")
    phi = Reparam.power_of_sitting(2)
    q = p.reparametrize(phi)
    assert np.allclose(q.start, p.start) and np.allclose(q.end, p.end)
    h = 1e-6
    for s in [0.3, 0.6]:
        fd = (q.value(s + h) - q.value(s - h)) / (2 * h)
        assert np.allclose(q.velocity(s), fd, atol=1e-6)


def test_reparam_validation():
    with pytest.raises(GeometryError):
        Reparam.from_expr("x1 + 1")  # does not fix 0
    with pytest.raises(GeometryError):
        Reparam.from_expr("x1 * (x1 - 1) * 4 + x1")  # dips, not monotone
    phi = Reparam.from_expr("x1 ^ 2 * (3 - 2 * x1)")
    assert phi(0.5) == pytest.approx(0.5)


@pytest.mark.parametrize("name", PATH_FIXTURES)
def test_path_fixtures_sit(name):
    p = shipped_path(name)
    if name == "pi-detour":
        worst, ok = p.certify_sitting(delta=0.025)
    else:
        worst, ok = p.certify_sitting()
    assert ok, (name, worst)


def test_unknown_fixture_names():
    with pytest.raises(GeometryError):
        shipped_path("nope")
    with pytest.raises(GeometryError):
        shipped_bigon("nope")


def test_interpolation_bigon_edges():
    b = shipped_bigon("unit-square")
    src, tgt = b.source(), b.target()
    seg = shipped_path("segment-x")
    for s in np.linspace(0, 1, 9):
        assert np.allclose(src.value(s), seg.value(s), atol=1e-12)
    # the detour finishes its upward leg a quarter of the way in
    assert np.allclose(tgt.value(0.25), [0.0, 1.0])
    assert np.allclose(tgt.value(0.125), [0.0, 0.5])
    assert np.allclose(b.corner_start, [0, 0])
    assert np.allclose(b.corner_end, [1, 0])


def test_interpolation_needs_shared_endpoints():
    p = Path.line((0.0, 0.0), (1.0, 0.0))
    q = Path.line((0.0, 0.0), (2.0, 0.0))
    with pytest.raises(CompositionError):
        Bigon.interpolate(p, q)


def test_unit_square_sweeps_unit_area():
    b = shipped_bigon("unit-square")
    assert b.swept_area(n=96) == pytest.approx(1.0, abs=2e-3)


def test_thin_sliver_sweeps_zero_area():
    b = shipped_bigon("thin-sliver")
    assert abs(b.swept_area(n=48)) < 1e-12


def test_half_squares_stack_to_unit_square():
    lower = shipped_bigon("half-square-lower")
    upper = shipped_bigon("half-square-upper")
    stacked = lower.vertical(upper)
    assert np.allclose(stacked.value(0.5, 0.25), lower.value(0.5, 0.5), atol=1e-12)
    assert np.allclose(stacked.value(0.5, 0.75), upper.value(0.5, 0.5), atol=1e-12)
    assert stacked.swept_area(n=96) == pytest.approx(1.0, abs=2e-3)


def test_vertical_needs_matching_paths():
    lower = shipped_bigon("half-square-lower")
    with pytest.raises(CompositionError):
        lower.vertical(shipped_bigon("half-square-lower"))


def test_horizontal_composition_corners():
    b = shipped_bigon("identity-segment")
    shifted = Bigon.identity(Path.line((1.0, 0.0), (2.0, 0.0)))
    wide = b.horizontal(shifted)
    assert np.allclose(wide.value(0.25, 0.5), b.value(0.5, 0.5))
    assert np.allclose(wide.value(0.75, 0.5), shifted.value(0.5, 0.5))
    with pytest.raises(CompositionError):
        shifted.horizontal(b)


def test_bigon_partial_derivatives_match_fd():
    b = shipped_bigon("unit-square")
    h = 1e-6
    for s, t in [(0.3, 0.4), (0.6, 0.7), (0.5, 0.2)]:
        fd_s = (b.value(s + h, t) - b.value(s - h, t)) / (2 * h)
        fd_t = (b.value(s, t + h) - b.value(s, t - h)) / (2 * h)
        assert np.allclose(b.d_s(s, t), fd_s, atol=1e-6)
        assert np.allclose(b.d_t(s, t), fd_t, atol=1e-6)


def test_from_exprs_bigon():
    # rotation sweep: segment rotating from the x-axis to the y-axis
    b = Bigon.from_exprs(["x1 * cos(x2 * 1.5707963267948966)",
                          "x1 * sin(x2 * 1.5707963267948966)"])
    assert np.allclose(b.value(1.0, 0.0), [1, 0])
    assert np.allclose(b.value(1.0, 1.0), [0, 1], atol=1e-12)
    # quarter disc swept once
    assert b.swept_area(n=96) == pytest.approx(math.pi / 4, abs=2e-3)


@pytest.mark.parametrize("name", BIGON_FIXTURES)
def test_bigon_fixtures_certify(name):
    b = shipped_bigon(name)
    margin = 0.025 if "square" in name else 0.095
    worst, ok = b.certify(delta=margin)
    assert ok, (name, worst)


def test_reverse_t_swaps_faces():
    b = shipped_bigon("half-square-lower")
    rb = b.reverse_t()
    for s in np.linspace(0, 1, 5):
        assert np.allclose(rb.value(s, 0.0), b.value(s, 1.0))
        assert np.allclose(rb.value(s, 1.0), b.value(s, 0.0))
    assert rb.swept_area(n=48) == pytest.approx(-b.swept_area(n=48), abs=1e-12)


def test_bigon_s_reparametrization_keeps_area():
    b = shipped_bigon("unit-square")
    rb = b.reparametrize_s(Reparam.power_of_sitting(2))
    assert rb.swept_area(n=96) == pytest.approx(b.swept_area(n=96), abs=5e-3)


# ------------------------------------------------------------ array closures

def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def _array_fixtures():
    square = shipped_bigon("unit-square")
    bigons = {name: shipped_bigon(name) for name in BIGON_FIXTURES}
    bigons["vertical"] = shipped_bigon("half-square-lower").vertical(
        shipped_bigon("half-square-upper"))
    bigons["horizontal"] = square.horizontal(
        Bigon.identity(Path.line((1.0, 0.0), (2.0, 0.0))))
    bigons["s-expr"] = square.reparametrize_s(Reparam.from_expr("x1 ^ 2 * (3 - 2 * x1)"))
    bigons["t-power"] = square.reparametrize_t(Reparam.power_of_sitting(3))
    bigons["exprs"] = Bigon.from_exprs(["x1 * cos(x2 * 1.5707963267948966)",
                                        "x1 * x2 * exp(x1) + tanh(x2) ^ 3"])
    return bigons


# node, midpoint and branch values: 1/2 is where the composites switch sides
S_VALUES = np.unique(np.concatenate([np.linspace(0.0, 1.0, 41), np.arange(16) / 16 + 1 / 32,
                                     [0.05, 0.5, 0.95]]))
T_VALUES = np.linspace(0.0, 1.0, 21)


@pytest.mark.parametrize("name", PATH_FIXTURES)
def test_path_arrays_match_scalar_calls(name):
    path = shipped_path(name)
    for method in (path.value, path.velocity):
        got = method(S_VALUES[:, None])
        assert got.shape == (len(S_VALUES), 1, path.dim)
        assert _bits(got) == _bits(np.array([[method(s)] for s in S_VALUES]))


@pytest.mark.parametrize("name", sorted(_array_fixtures()))
def test_bigon_arrays_match_scalar_calls(name):
    bigon = _array_fixtures()[name]
    for method in (bigon.value, bigon.d_s, bigon.d_t):
        got = method(S_VALUES[:, None], T_VALUES[None, :])
        assert got.shape == (len(S_VALUES), len(T_VALUES), bigon.dim)
        want = np.array([[method(s, t) for t in T_VALUES] for s in S_VALUES])
        assert _bits(got) == _bits(want)
        # full 2-D parameter grids take the composites' flattening branch
        got = method(*np.meshgrid(S_VALUES, T_VALUES, indexing="ij"))
        assert _bits(got) == _bits(want)


def test_scalar_only_closure_is_refused_on_arrays():
    sheet = Bigon(lambda s, t: np.array([1.0, 2.0, 3.0]),
                  lambda s, t: np.zeros(3), lambda s, t: np.zeros(3), 2)
    assert sheet.value(0.5, 0.5).shape == (3,)
    with pytest.raises(GeometryError, match="broadcast"):
        sheet.value(np.zeros((4, 1)), np.zeros((1, 5)))


def test_composite_evaluates_each_side_only_on_its_half():
    # an expression may fail outside its own leg, so neither leg of a
    # concatenation is handed the other's parameter values
    seen = {}

    def recorder(tag, start):
        def value(u):
            seen.setdefault(tag, []).append(np.array(u, dtype=float).ravel())
            u = np.asarray(u, dtype=float)
            return np.stack([start + u, 0.0 * u], axis=-1)
        return Path(value, lambda u: np.stack([np.ones_like(u), np.zeros_like(u)], axis=-1), 2)

    joined = recorder("first", 0.0).compose(recorder("second", 1.0))
    seen.clear()
    s = np.linspace(0.0, 1.0, 11)
    got = joined.value(s)
    assert np.array_equal(np.concatenate(seen["first"]), 2 * s[s <= 0.5])
    assert np.array_equal(np.concatenate(seen["second"]), 2 * s[s > 0.5] - 1)
    assert _bits(got) == _bits(np.array([joined.value(x) for x in s]))
