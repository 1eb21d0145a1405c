"""Smooth group-valued maps with exact directional derivatives.

The workhorse is ExpParamMap: g(x) = exp(sum_k phi_k(x) e_k) with expression
coefficients. Its derivative combines the exact symbolic derivative of the
exponent with the Frechet derivative of the matrix exponential, so no finite
differencing enters the gauge-transformation laws. NumericalMap exists as an
independent central-difference route for cross-checking.
"""

import numpy as np

from .errors import GeometryError
from .forms import FormField, PointwiseForm


class GroupMap:
    """Base: a map from R^dim into a matrix group, with derivative data."""

    def __init__(self, group, dim):
        self.group = group
        self.dim = int(dim)

    def at(self, point):
        raise NotImplementedError

    def jac(self, point, direction):
        """Directional derivative of `at` along `direction` (a raw matrix)."""
        raise NotImplementedError

    def inverse(self):
        return InverseMap(self)

    def product(self, other):
        return ProductMap(self, other)


class ConstantMap(GroupMap):
    def __init__(self, group, value, dim):
        super().__init__(group, dim)
        self.value = group.renormalize(group._check(value))

    def at(self, point):
        return self.value

    def jac(self, point, direction):
        return np.zeros_like(self.value)


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

    @classmethod
    def from_exprs(cls, group, dim, texts):
        """texts: one coefficient expression per algebra basis element."""
        if len(texts) != group.algebra.dim:
            raise GeometryError(f"need {group.algebra.dim} coefficient expressions")
        cfg = {f"{k + 1}": t for k, t in enumerate(texts)}
        return cls(group, FormField.from_config(group.algebra, 0, dim, cfg))

    def at(self, point):
        return self.group.exp(self.exponent.at(point))

    def jac(self, point, direction):
        X = self.exponent.at(point)
        dX = self._dexponent.at(point, np.asarray(direction, dtype=float))
        from scipy.linalg import expm_frechet  # loaded on first use
        _, L = expm_frechet(X, dX)
        return L


class InverseMap(GroupMap):
    def __init__(self, base):
        super().__init__(base.group, base.dim)
        self.base = base

    def at(self, point):
        return self.group.inv(self.base.at(point))

    def jac(self, point, direction):
        gi = self.at(point)
        return -gi @ self.base.jac(point, direction) @ gi


class ProductMap(GroupMap):
    def __init__(self, left, right):
        if left.group is not right.group and left.group.name != right.group.name:
            raise GeometryError("cannot multiply maps into different groups")
        if left.dim != right.dim:
            raise GeometryError("maps have different domain dimensions")
        super().__init__(left.group, left.dim)
        self.left = left
        self.right = right

    def at(self, point):
        return self.group.renormalize(self.left.at(point) @ self.right.at(point))

    def jac(self, point, direction):
        return (self.left.jac(point, direction) @ self.right.at(point)
                + self.left.at(point) @ self.right.jac(point, direction))


class NumericalMap(GroupMap):
    """Wraps a plain callable; derivatives by central differences (step h)."""

    def __init__(self, group, fn, dim, h=1e-6):
        super().__init__(group, dim)
        self._fn = fn
        self.h = float(h)

    def at(self, point):
        return self._fn(tuple(point))

    def jac(self, point, direction):
        p = np.asarray(point, dtype=float)
        d = np.asarray(direction, dtype=float)
        fp = self._fn(tuple(p + self.h * d))
        fm = self._fn(tuple(p - self.h * d))
        return (fp - fm) / (2 * self.h)


def maurer_cartan(gmap):
    """The flat connection carried by a group map: value g d(g^-1) = -(dg) g^-1."""
    group = gmap.group

    def fn(point, v):
        g = gmap.at(point)
        return group.algebra.project(-gmap.jac(point, v) @ group.inv(g))

    return PointwiseForm(group.algebra, 1, gmap.dim, fn)


def right_log_derivative(gmap):
    """(dg) g^-1 as a pointwise 1-form (the negative of `maurer_cartan`)."""
    group = gmap.group

    def fn(point, v):
        g = gmap.at(point)
        return group.algebra.project(gmap.jac(point, v) @ group.inv(g))

    return PointwiseForm(group.algebra, 1, gmap.dim, fn)
