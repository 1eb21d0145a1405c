"""Smooth group-valued maps with exact directional derivatives.

The workhorse is ExpParamMap: g(x) = exp(sum_k phi_k(x) e_k) with expression
coefficients. Its derivative combines the exact symbolic derivative of the
exponent with the Frechet derivative of the matrix exponential, so no finite
differencing enters the gauge-transformation laws. NumericalMap exists as an
independent central-difference route for cross-checking.

A map is given on point stacks: `at_points`, `inv_points` and `jac_points`
take an (N, dim) stack of points (and of directions) and return (N, n, n)
stacks. `at` and `jac` are their stack of one. An ExpParamMap computes a
stack's exponents with one `FormField.at_points`, g with one stacked `exp`
and dg along each direction stack with one `expm_frechet` per point, each
matrix with the bits of the single-matrix call. It keeps these values for
the last point stack only, so the forms built on one map (a gauge transform
and its Maurer-Cartan form, evaluated along several directions) share them,
and its memory stays that of one stack. A ConstantMap broadcasts its value;
a NumericalMap calls its point function once per point and differences
whole stacks.
"""

import numpy as np

from .errors import GeometryError
from .forms import FormField, StackedForm

# central-difference step of NumericalMap
NUMERICAL_STEP = 1e-6


class GroupMap:
    """Base: a map from R^dim into a matrix group, with derivative data."""

    def __init__(self, group, dim):
        self.group = group
        self.dim = int(dim)

    def at_points(self, points):
        """g at each row of an (N, dim) stack of points."""
        raise NotImplementedError

    def jac_points(self, points, directions):
        """Directional derivative of g (a raw matrix) at each row of points
        along the matching row of directions."""
        raise NotImplementedError

    def inv_points(self, points):
        """The group inverse of each matrix of `at_points`."""
        return self.group.inv(self.at_points(points))

    def at(self, point):
        """g at one point: `at_points` on a stack of one."""
        return self.at_points(np.asarray(point, dtype=float)[None])[0]

    def jac(self, point, direction):
        """dg at one point along one direction: `jac_points` on a stack of one."""
        return self.jac_points(np.asarray(point, dtype=float)[None],
                               np.asarray(direction, dtype=float)[None])[0]


class ConstantMap(GroupMap):
    def __init__(self, group, value, dim):
        super().__init__(group, dim)
        self.value = group.renormalize(group._check(value))

    def at_points(self, points):
        return np.broadcast_to(self.value, (len(points),) + self.value.shape)

    def jac_points(self, points, directions):
        return np.zeros((len(points),) + self.value.shape, dtype=self.value.dtype)


class ExpParamMap(GroupMap):
    """exp of an algebra-valued degree-0 form; derivative via expm_frechet."""

    def __init__(self, group, exponent):
        if exponent.degree != 0:
            raise GeometryError("exponent must be a degree-0 form")
        if exponent.algebra.dim != group.algebra.dim:
            raise GeometryError("exponent algebra does not match the group")
        super().__init__(group, exponent.dim)
        self.exponent = exponent
        self._dexponent = exponent.d()
        self._last = None  # values of the last point stack, see _stack

    @classmethod
    def from_exprs(cls, group, dim, texts):
        """texts: one coefficient expression per algebra basis element."""
        if len(texts) != group.algebra.dim:
            raise GeometryError(f"need {group.algebra.dim} coefficient expressions")
        cfg = {f"{k + 1}": t for k, t in enumerate(texts)}
        return cls(group, FormField.from_config(group.algebra, 0, dim, cfg))

    def _stack(self, points):
        """(exponents, g, g^-1, {direction bytes: dg}) of a point stack,
        computed once: a new stack replaces the last one's values."""
        points = np.asarray(points, dtype=float)
        key = (points.shape, points.tobytes())
        if self._last is None or self._last[0] != key:
            X = self.exponent.at_points(points)
            g = self.group.exp(X)
            values = (X, g, self.group.inv(g), {})
            for v in values[:3]:
                v.flags.writeable = False
            self._last = (key, values)
        return self._last[1]

    def at_points(self, points):
        return self._stack(points)[1]

    def inv_points(self, points):
        return self._stack(points)[2]

    def jac_points(self, points, directions):
        X, _, _, dgs = self._stack(points)
        directions = np.asarray(directions, dtype=float)
        key = directions.tobytes()
        if key not in dgs:
            from scipy.linalg import expm_frechet  # loaded on first use
            dX = self._dexponent.at_points(points, directions)
            dg = np.array([expm_frechet(x, dx)[1] for x, dx in zip(X, dX)])
            dg.flags.writeable = False
            dgs[key] = dg
        return dgs[key]


class NumericalMap(GroupMap):
    """Wraps a point function fn(tuple) -> matrix; derivatives by central
    differences of step NUMERICAL_STEP."""

    def __init__(self, group, fn, dim):
        super().__init__(group, dim)
        self._fn = fn

    def at_points(self, points):
        return np.array([self._fn(tuple(p)) for p in np.asarray(points, dtype=float)])

    def jac_points(self, points, directions):
        p = np.asarray(points, dtype=float)
        d = np.asarray(directions, dtype=float)
        h = NUMERICAL_STEP
        return (self.at_points(p + h * d) - self.at_points(p - h * d)) / (2 * h)


def maurer_cartan(gmap):
    """The flat connection carried by a group map: value g d(g^-1) = -(dg) g^-1."""
    algebra = gmap.group.algebra

    def fn(points, v):
        return algebra.project(-gmap.jac_points(points, v) @ gmap.inv_points(points))

    return StackedForm(algebra, 1, gmap.dim, fn)


def right_log_derivative(gmap):
    """(dg) g^-1 as a 1-form on point stacks (the negative of `maurer_cartan`)."""
    algebra = gmap.group.algebra

    def fn(points, v):
        return algebra.project(gmap.jac_points(points, v) @ gmap.inv_points(points))

    return StackedForm(algebra, 1, gmap.dim, fn)
