import numpy as np
import pytest

from twogauge.crossed import crossed_module
from twogauge.errors import EvalError, GeometryError
from twogauge.expr import Div, Num, Sub, Var, parse
from twogauge.forms import (
    FormField, PointwiseForm, action_wedge, action_wedge_pointwise, curvature,
    fake_curvature_form, forms_close, overlap_curvature, square_wedge,
    three_curvature,
)
from twogauge.groups import so3_algebra, su2_algebra, u1_algebra

U1 = u1_algebra()
SU2 = su2_algebra()
SO3 = so3_algebra()


def sample_points(dim, n=5, seed=0):
    rng = np.random.default_rng(seed)
    return [tuple(rng.uniform(-1, 1, dim)) for _ in range(n)]


def fd_directional(field, point, direction, vectors, h=1e-5):
    # central difference of s -> field(point + s*direction)(vectors)
    p = np.asarray(point, dtype=float)
    d = np.asarray(direction, dtype=float)
    fp = field.at(tuple(p + h * d), *vectors)
    fm = field.at(tuple(p - h * d), *vectors)
    return (fp - fm) / (2 * h)


def test_from_config_and_evaluation():
    A = FormField.from_config(U1, 1, 2, {"1,1": "x2"})
    val = A.at((0.3, 0.7), np.array([1.0, 0.0]))
    assert np.allclose(val, 0.7 * U1.basis[0])
    assert A.at((0.3, 0.7), np.array([0.0, 1.0]))[0, 0] == 0


def test_exterior_derivative_sign():
    # d(x2 dx1) = -dx1^dx2
    A = FormField.from_config(U1, 1, 2, {"1,1": "x2"})
    dA = A.d()
    assert dA.components == {(0, (0, 1)): Num(-1.0)}
    u, v = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert np.allclose(dA.at((0.0, 0.0), u, v), -U1.basis[0])
    assert np.allclose(dA.at((0.0, 0.0), v, u), U1.basis[0])


def test_u1_pair_curvature_value():
    # A = x2 dx1 on the circle pair: F(e1, e2) = -i
    cm = crossed_module("CONJ(U1)")
    A = FormField.from_config(cm.G.algebra, 1, 2, {"1,1": "x2"})
    F = curvature(A)
    u, v = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert np.allclose(F.at((0.1, 0.2), u, v), np.array([[-1j]]))


def test_d_of_d_structurally_zero_without_division():
    f = FormField.from_config(U1, 0, 3,
                              {"1": "sin(x1 * x2) + x3 ^ 3 * tanh(x2)"})
    assert f.d().d().is_structurally_zero
    A = FormField.from_config(SU2, 1, 3,
                              {"1,1": "x2 * x3", "2,2": "exp(x1)", "3,3": "cos(x1 * x2)"})
    assert A.d().d().is_structurally_zero


def test_d_of_d_numeric_with_division():
    f = FormField.from_config(U1, 0, 2, {"1": "x1 / (x2 + 2)"})
    dd = f.d().d()
    assert dd.max_abs_on_grid(sample_points(2)) < 1e-12


def test_pure_gauge_u1_curvature_vanishes():
    # A = -d(phi) for phi = sin(x1) * x2: flat both structurally and on a grid
    phi = parse("sin(x1) * x2")
    from twogauge.expr import differentiate, neg_
    comps = {(0, (m,)): neg_(differentiate(phi, m + 1)) for m in range(2)}
    A = FormField(U1, 1, 2, comps)
    F = curvature(A)
    assert F.is_structurally_zero
    assert F.max_abs_on_grid(sample_points(2)) < 1e-8


def test_square_wedge_su2_structure():
    # constant A = e1 dx1 + e2 dx2: A^A picks out [e1, e2] = e3
    A = FormField.constant(SU2, 1, 2, {(0,): SU2.basis[0], (1,): SU2.basis[1]})
    W = square_wedge(A)
    u, v = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert np.allclose(W.at((0.0, 0.0), u, v), SU2.basis[2], atol=1e-14)
    assert np.allclose(W.at((0.0, 0.0), v, u), -SU2.basis[2], atol=1e-14)


def test_curvature_matches_finite_difference():
    A = FormField.from_config(SU2, 1, 3, {
        "1,1": "x2", "2,2": "x3 * x1", "3,3": "sin(x2)", "1,2": "x3 ^ 2"})
    F = curvature(A)
    dirs = np.eye(3)
    for p in sample_points(3, n=3, seed=1):
        for i in range(3):
            for j in range(i + 1, 3):
                u, v = dirs[i], dirs[j]
                # dA(u,v) by central differences, bracket exactly
                dA = fd_directional(A, p, u, (v,)) - fd_directional(A, p, v, (u,))
                Au, Av = A.at(p, u), A.at(p, v)
                expected = dA + (Au @ Av - Av @ Au)
                assert np.linalg.norm(F.at(p, u, v) - expected) < 1e-8


def test_action_wedge_matches_pointwise_route():
    cm = crossed_module("AUT(SU2)")
    A = FormField.from_config(cm.G.algebra, 1, 3, {
        "1,1": "x2", "2,2": "x1 * x3", "3,3": "cos(x2)"})
    w1 = FormField.from_config(cm.H.algebra, 1, 3, {
        "1,2": "x3", "2,3": "sin(x1)", "3,1": "x1 * x2"})
    sym = action_wedge(cm.dalpha_matrix(), A, w1)
    pw = action_wedge_pointwise(cm, A, w1)
    worst, ok = forms_close(sym, pw, sample_points(3, n=4, seed=2), 1e-10)
    assert ok, worst

    w2 = FormField.from_config(cm.H.algebra, 2, 3, {
        "1,12": "x3 ^ 2", "2,13": "x2", "3,23": "exp(x1)"})
    sym2 = action_wedge(cm.dalpha_matrix(), A, w2)
    pw2 = action_wedge_pointwise(cm, A, w2)
    worst, ok = forms_close(sym2, pw2, sample_points(3, n=4, seed=3), 1e-10)
    assert ok, worst


def test_three_curvature_pointwise_agreement():
    cm = crossed_module("CONJ(SU2)")
    A = FormField.from_config(cm.G.algebra, 1, 3, {"1,1": "x2", "2,3": "x1"})
    B = FormField.from_config(cm.H.algebra, 2, 3, {
        "1,12": "x3", "2,23": "x1 * x2", "3,13": "sin(x3)"})
    H3 = three_curvature(cm, A, B)
    alt = PointwiseForm.from_field(B.d()) + action_wedge_pointwise(cm, A, B)
    worst, ok = forms_close(H3, alt, sample_points(3, n=4, seed=4), 1e-10)
    assert ok, worst


def test_fake_curvature_uses_boundary_map():
    cm = crossed_module("AUT(SU2)")
    A = FormField.from_config(cm.G.algebra, 1, 2, {"1,1": "x2"})
    B = FormField.from_config(cm.H.algebra, 2, 2, {"1,12": "3", "2,12": "x1"})
    fake = fake_curvature_form(cm, A, B)
    # aligned bases: dt matrix is the identity, so B's coefficients carry over
    diff = fake - curvature(A)
    mapped = B.map_algebra(cm.dt_matrix(), cm.G.algebra)
    assert diff.text_components() == mapped.text_components()
    u, v = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    p = (0.5, -0.3)
    assert np.allclose(mapped.at(p, u, v),
                       cm.dt(B.at(p, u, v)), atol=1e-12)


def test_overlap_curvature_reduces_without_action():
    # with A = 0 the overlap form is just da + a^a
    cm = crossed_module("CONJ(SU2)")
    zero_A = FormField.zero(cm.G.algebra, 1, 2)
    a = FormField.from_config(cm.H.algebra, 1, 2, {"1,1": "x2", "2,2": "x1"})
    k = overlap_curvature(cm, zero_A, a)
    ref = a.d() + square_wedge(a)
    assert k.text_components() == ref.text_components()


def test_degree3_determinant_evaluation():
    B3 = FormField.from_config(U1, 3, 3, {"1,123": "2"})
    u, v, w = np.eye(3)
    assert np.allclose(B3.at((0, 0, 0), u, v, w), 2 * U1.basis[0])
    assert np.allclose(B3.at((0, 0, 0), v, u, w), -2 * U1.basis[0])
    m = np.array([[1.0, 2, 0], [0, 1, 0], [1, 0, 3]])
    det = np.linalg.det(m)
    assert np.allclose(B3.at((0, 0, 0), m[0], m[1], m[2]), det * 2 * U1.basis[0])


def test_config_validation_errors():
    with pytest.raises(GeometryError):
        FormField.from_config(U1, 1, 2, {"1,3": "x1"})  # coordinate out of range
    with pytest.raises(GeometryError):
        FormField.from_config(U1, 2, 2, {"1,21": "x1"})  # not increasing
    with pytest.raises(GeometryError):
        FormField.from_config(U1, 1, 2, {"1,12": "x1"})  # wrong degree
    with pytest.raises(GeometryError):
        FormField.from_config(U1, 1, 2, {"2,1": "x1"})  # basis index out of range
    with pytest.raises(GeometryError):
        FormField.from_config(U1, 1, 2, {"1,1": "x3"})  # variable beyond dim
    with pytest.raises(GeometryError):
        FormField.from_config(U1, 0, 2, {"1,1": "x1"})  # degree-0 key with coords
    with pytest.raises(EvalError):
        FormField.from_config(U1, 1, 2, {"1,1": "x1"}).at((0, 0))  # missing vector


def test_add_neg_scale_roundtrip():
    A = FormField.from_config(U1, 1, 2, {"1,1": "x2", "1,2": "x1"})
    Z = A + (-A)
    assert Z.is_structurally_zero
    S = A.scaled(3.0)
    p = (0.4, 0.6)
    u = np.array([1.0, 2.0])
    assert np.allclose(S.at(p, u), 3 * A.at(p, u))


# ------------------------------------------------------------- many points

def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def _at_each(form, points, *vectors):
    return np.array([form.at(tuple(p), *(v[i] for v in vectors))
                     for i, p in enumerate(points)])


@pytest.mark.parametrize("degree, dim, comps", [
    (0, 2, {"1": "x1 * x2", "3": "exp(x1)"}),
    (1, 2, {"1,1": "x2", "2,2": "sin(x1)", "3,1": "x1 * x2", "1,2": "tanh(x2) ^ 3"}),
    (2, 2, {"1,12": "1 + x1 * x2 * sin(x1)", "2,12": "-cos(x1)", "3,12": "x1 - x2 * sin(x1)"}),
    (2, 3, {"1,12": "x3", "1,13": "x2", "2,23": "x1 * x2 ^ 2 * x3", "3,12": "0.5"}),
    (3, 3, {"1,123": "x1 * x3 - x2", "2,123": "exp(x2 * x3)"}),
])
def test_at_points_has_the_bits_of_at(degree, dim, comps):
    form = FormField.from_config(SU2, degree, dim, comps)
    rng = np.random.default_rng(5)
    points = rng.uniform(-1.0, 1.0, (300, dim))
    vectors = [rng.uniform(-2.0, 2.0, (300, dim)) for _ in range(degree)]
    # exact zeros: coefficients that vanish are skipped, as `at` skips them
    points[::7, 0] = 0.0
    if vectors:
        vectors[0][::5] = 0.0
    got = form.at_points(points, *vectors)
    assert got.shape == (300, 2, 2)
    assert _bits(got) == _bits(_at_each(form, points, *vectors))
    assert _bits(PointwiseForm.from_field(form).at_points(points, *vectors)) == _bits(got)


def test_negative_literal_power_agrees_between_at_and_at_points():
    form = FormField.from_config(SU2, 1, 2, {"1,1": "(-2) ^ 2 * x1"})
    points = np.array([[1.0, 0.0], [-0.5, 2.0]])
    vectors = np.array([[1.0, 0.0], [2.0, 1.0]])
    got = form.at_points(points, vectors)
    assert _bits(got) == _bits(_at_each(form, points, vectors))
    assert np.array_equal(got[0], 4.0 * SU2.basis[0])


@pytest.mark.parametrize("numerator", [np.inf, np.nan], ids=["inf", "nan"])
def test_non_finite_over_zero_is_refused_by_at_and_at_points(numerator):
    form = FormField(SU2, 1, 2, {(0, (0,)): Div(Num(numerator), Sub(Var(1), Var(1)))})
    points = np.array([[1.0, 0.0], [-0.5, 2.0]])
    vectors = np.array([[1.0, 0.0], [2.0, 1.0]])
    with pytest.raises(EvalError, match="division by zero") as one:
        form.at(tuple(points[0]), vectors[0])
    with pytest.raises(EvalError, match="division by zero") as many:
        form.at_points(points, vectors)
    assert str(many.value) == str(one.value)


def test_at_points_checks_its_arguments():
    form = FormField.from_config(SU2, 1, 2, {"1,1": "x2"})
    pts = np.zeros((4, 2))
    with pytest.raises(EvalError, match="needs 1 vectors"):
        form.at_points(pts)
    with pytest.raises(EvalError, match="3 coordinates, expected 2"):
        form.at_points(np.zeros((4, 3)), np.zeros((4, 3)))
    with pytest.raises(EvalError, match="match"):
        form.at_points(pts, np.zeros((3, 2)))


@pytest.mark.parametrize("algebra", [SU2, SO3], ids=["su2", "so3"])
def test_an_empty_point_stack_gives_an_empty_matrix_stack_from_every_form(algebra):
    field = FormField.from_config(algebra, 1, 2, {"1,1": "x2", "2,2": "sin(x1)"})
    forms = {"field": field, "stacked": PointwiseForm.from_field(field),
             "pointwise": PointwiseForm(algebra, 1, 2, field.at)}
    points = np.zeros((0, 2))
    for kind, form in forms.items():
        got = form.at_points(points, points)
        assert (got.shape, got.dtype) == ((0, algebra.n, algebra.n), np.dtype(algebra.dtype)), kind


def test_pointwise_forms_over_different_algebras_do_not_add():
    su2 = FormField.from_config(SU2, 1, 2, {"1,1": "x2"})
    so3 = FormField.from_config(SO3, 1, 2, {"1,1": "x2"})
    for left, right in ((PointwiseForm.from_field(su2), PointwiseForm.from_field(so3)),
                        (PointwiseForm(SU2, 1, 2, su2.at), PointwiseForm(SO3, 1, 2, so3.at))):
        with pytest.raises(GeometryError, match="matching degree, dim, algebra"):
            left + right
    # the same algebra built twice is the same algebra
    same = PointwiseForm.from_field(su2) + PointwiseForm.from_field(
        FormField.from_config(su2_algebra(), 1, 2, {"2,1": "x1"}))
    assert same.at_points(np.ones((1, 2)), np.ones((1, 2))).shape == (1, 2, 2)


@pytest.mark.parametrize("kind", ["stacked", "pointwise"])
def test_a_field_and_a_numeric_form_add_and_subtract_in_either_order(kind):
    field = FormField.from_config(SU2, 1, 2, {"1,1": "x2", "2,2": "sin(x1)", "3,1": "x1 * x2"})
    other = FormField.from_config(SU2, 1, 2, {"1,2": "exp(x1)", "3,1": "tanh(x2)"})
    numeric = (PointwiseForm.from_field(other) if kind == "stacked"
               else PointwiseForm(SU2, 1, 2, other.at))
    rng = np.random.default_rng(8)
    points, vectors = rng.uniform(-1.0, 1.0, (40, 2)), rng.uniform(-2.0, 2.0, (40, 2))
    pairs = [(field + numeric, numeric + field), (field - numeric, -numeric + field),
             (numeric - field, -field + numeric)]
    for left, right in pairs:
        assert isinstance(left, PointwiseForm)
        assert _bits(left.at_points(points, vectors)) == _bits(right.at_points(points, vectors))
    assert np.allclose((field + numeric).at_points(points, vectors),
                       (field + other).at_points(points, vectors), rtol=0, atol=1e-14)
    with pytest.raises(GeometryError, match="matching degree, dim, algebra"):
        field + PointwiseForm.from_field(FormField.from_config(SO3, 1, 2, {"1,1": "x2"}))
