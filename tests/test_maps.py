"""Group map derivatives against central-difference oracles."""

import numpy as np
import pytest

from twogauge.errors import GeometryError
from twogauge.groups import SO3, SU2, U1
from twogauge.maps import (
    ConstantMap, ExpParamMap, NumericalMap, maurer_cartan, right_log_derivative,
)


def su2_map():
    return ExpParamMap.from_exprs(SU2(), 2, ["sin(x1)", "x1 * x2", "x2 ^ 2"])


def numeric_twin(gmap):
    return NumericalMap(gmap.group, gmap.at, gmap.dim)


POINTS = [(0.3, -0.4), (0.0, 0.9), (-0.7, 0.2)]
DIRS = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.6, -0.8])]


def test_exp_map_lands_in_group():
    g = su2_map()
    for p in POINTS:
        assert g.group.defect(g.at(p)) < 1e-12


def test_exp_map_derivative_matches_central_differences():
    g = su2_map()
    twin = numeric_twin(g)
    for p in POINTS:
        for v in DIRS:
            assert np.linalg.norm(g.jac(p, v) - twin.jac(p, v)) < 1e-8


def test_so3_exp_map_derivative():
    g = ExpParamMap.from_exprs(SO3(), 2, ["x1", "cos(x2)", "x1 * x2"])
    twin = numeric_twin(g)
    for p in POINTS:
        for v in DIRS[:2]:
            assert np.linalg.norm(g.jac(p, v) - twin.jac(p, v)) < 1e-8


def test_maurer_cartan_values_and_flatness():
    g = su2_map()
    A = maurer_cartan(g)
    h = 1e-5
    for p in POINTS:
        p = np.asarray(p)
        for i, u in enumerate(DIRS[:2]):
            for v in DIRS[i + 1:2]:
                assert SU2().algebra.contains(A.at(tuple(p), u), tol=1e-10)
                # dA(u,v) + [A(u), A(v)] should vanish for a pure gauge field
                dAu = (np.asarray(A.at(tuple(p + h * u), v))
                       - np.asarray(A.at(tuple(p - h * u), v))) / (2 * h)
                dAv = (np.asarray(A.at(tuple(p + h * v), u))
                       - np.asarray(A.at(tuple(p - h * v), u))) / (2 * h)
                Au, Av = A.at(tuple(p), u), A.at(tuple(p), v)
                F = dAu - dAv + (Au @ Av - Av @ Au)
                assert np.linalg.norm(F) < 1e-6


def test_right_log_derivative_is_negative_maurer_cartan():
    g = su2_map()
    A = maurer_cartan(g)
    R = right_log_derivative(g)
    for p in POINTS:
        for v in DIRS[:2]:
            assert np.linalg.norm(A.at(p, v) + R.at(p, v)) < 1e-12


def test_constant_map():
    G = SU2()
    rng = np.random.default_rng(0)
    c = ConstantMap(G, G.random(rng), 2)
    assert np.linalg.norm(c.jac((0.1, 0.2), DIRS[0])) == 0
    A = maurer_cartan(c)
    assert np.linalg.norm(A.at((0.1, 0.2), DIRS[0])) == 0


def test_constructor_validation():
    with pytest.raises(GeometryError):
        ExpParamMap.from_exprs(SU2(), 2, ["x1", "x2"])


EXPONENTS = {"SU2": ["sin(x1)", "x1 * x2", "0.3"], "SO3": ["x1", "cos(x2)", "x1 * x2"],
             "U1": ["x1 - x2"]}


@pytest.mark.parametrize("name", sorted(EXPONENTS))
def test_an_empty_point_stack_gives_empty_matrix_stacks(name):
    G = {"SU2": SU2, "SO3": SO3, "U1": U1}[name]()
    exp_map = ExpParamMap.from_exprs(G, 2, EXPONENTS[name])
    gmaps = {"exp": exp_map, "constant": ConstantMap(G, exp_map.at((0.3, -0.2)), 2),
             "numerical": numeric_twin(exp_map)}
    points = np.zeros((0, 2))
    for kind, gmap in gmaps.items():
        for what, got in (("at", gmap.at_points(points)),
                          ("inv", gmap.inv_points(points)),
                          ("jac", gmap.jac_points(points, points)),
                          ("maurer_cartan", maurer_cartan(gmap).at_points(points, points)),
                          ("right_log", right_log_derivative(gmap).at_points(points, points))):
            assert (got.shape, got.dtype) == ((0, G.n, G.n), np.dtype(G.dtype)), (kind, what)
