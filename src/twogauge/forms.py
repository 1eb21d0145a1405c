"""Lie-algebra-valued differential forms with symbolic coefficients.

A FormField of degree k on R^dim stores components as a sparse map
{(a, mu): Expr} where `a` indexes the value algebra's basis and `mu` is a
strictly increasing tuple of k coordinate indices (0-based). Evaluation on
vectors v_1..v_k is

    sum_a sum_mu  F^a_mu(x) * det( v_i[mu_j] ) * e_a .

The exterior derivative is exact (expression-level differentiation); wedge
constructions against a connection use structure constants or an action
tensor, so curvature identities can be probed both symbolically and
numerically. PointwiseForm covers the same evaluation contract for values
only obtainable numerically (gauge-transformed connections, pushforwards).

`at` evaluates at one point. `at_points` evaluates at N points given as
(N, dim) arrays of points and vectors and returns the (N, n, n) stack of
values: a FormField runs each coefficient once over all points (see
`expr.ArrayExpr`) and accumulates in the same order as `at`, components in
dict order and zero coefficients skipped, so every value has the bits of
the single-point call. A PointwiseForm built on a point function calls it
point by point. A StackedForm is built on a function of whole point
stacks, as gauge transforms, Maurer-Cartan forms (see `maps`), sums and
action wedges are; its `at` evaluates a stack of one point. `forms_close`
and `FormField.max_abs_on_grid` sample each direction tuple with one
`at_points` call per form.
"""

from itertools import combinations

import numpy as np

from .errors import EvalError, GeometryError
from .expr import (
    Num, add_, compile_expr, differentiate, max_var_index, mul_, neg_, num,
    parse, to_text,
)
from .groups import max_norm

MAX_DEGREE = 3


def _is_zero(e):
    return isinstance(e, Num) and e.value == 0


def _validated_components(algebra, degree, dim, components):
    out = {}
    for key, e in components.items():
        a, mu = key
        mu = tuple(int(m) for m in mu)
        if not (0 <= a < algebra.dim):
            raise GeometryError(f"basis index {a} out of range for {algebra.name}")
        if len(mu) != degree:
            raise GeometryError(f"multi-index {mu} has wrong length for degree {degree}")
        if any(not (0 <= m < dim) for m in mu):
            raise GeometryError(f"coordinate index out of range in {mu}")
        if any(mu[i] >= mu[i + 1] for i in range(len(mu) - 1)):
            raise GeometryError(f"multi-index {mu} must be strictly increasing")
        if max_var_index(e) > dim:
            raise GeometryError(
                f"component {to_text(e)!r} references x{max_var_index(e)} beyond dim {dim}")
        if not _is_zero(e):
            out[(int(a), mu)] = e
    return out


class FormField:
    def __init__(self, algebra, degree, dim, components):
        if not (0 <= degree <= MAX_DEGREE):
            raise GeometryError(f"degree must be 0..{MAX_DEGREE}, got {degree}")
        if dim < 1:
            raise GeometryError("dim must be positive")
        self.algebra = algebra
        self.degree = int(degree)
        self.dim = int(dim)
        self.components = _validated_components(algebra, degree, dim, components)
        self._compiled = None

    @classmethod
    def zero(cls, algebra, degree, dim):
        return cls(algebra, degree, dim, {})

    @classmethod
    def constant(cls, algebra, degree, dim, values):
        """values: {mu: algebra element}; coefficients become literals."""
        comps = {}
        for mu, mat in values.items():
            coords = algebra.coords(mat)
            for a, c in enumerate(coords):
                if abs(c) > 1e-14:
                    comps[(a, tuple(mu))] = num(float(c))
        return cls(algebra, degree, dim, comps)

    @classmethod
    def from_config(cls, algebra, degree, dim, cfg):
        """Text table {"a,m1m2...": "expr"} with 1-based indices.

        Degree-0 entries use the bare basis index "a" as key.
        """
        comps = {}
        for key, text in cfg.items():
            head, _, tail = key.partition(",")
            try:
                a = int(head) - 1
            except ValueError:
                raise GeometryError(f"bad component key {key!r}") from None
            if degree == 0:
                if tail:
                    raise GeometryError(f"degree-0 key {key!r} must not list coordinates")
                mu = ()
            else:
                if len(tail) != degree or not tail.isdigit():
                    raise GeometryError(
                        f"key {key!r} needs {degree} coordinate digits after the comma")
                mu = tuple(int(ch) - 1 for ch in tail)
            e = parse(text) if isinstance(text, str) else text
            prev = comps.get((a, mu))
            comps[(a, mu)] = add_(prev, e) if prev is not None else e
        return cls(algebra, degree, dim, comps)

    def _fns(self):
        if self._compiled is None:
            self._compiled = {k: compile_expr(e) for k, e in self.components.items()}
        return self._compiled

    def at(self, point, *vectors):
        # the one-point API, and the reference the tests hold at_points to
        if len(vectors) != self.degree:
            raise EvalError(f"degree-{self.degree} field needs {self.degree} vectors, "
                            f"got {len(vectors)}")
        if len(point) != self.dim:
            raise EvalError(f"point has {len(point)} coordinates, expected {self.dim}")
        point = tuple(float(c) for c in point)
        vecs = [np.asarray(v, dtype=float) for v in vectors]
        total = self.algebra.zero()
        for (a, mu), fn in self._fns().items():
            c = fn(point) * _weight(mu, vecs)
            if c != 0.0:
                total = total + c * self.algebra.basis[a]
        return total

    def at_points(self, points, *vectors):
        """`at` at every row of points (N, dim) with the matching vector rows."""
        points, vecs = _point_arrays(self, points, vectors)
        coords = [v.T for v in vecs]
        total = np.zeros((len(points),) + self.algebra.zero().shape, dtype=self.algebra.dtype)
        for (a, mu), fn in self._fns().items():
            c = (fn.arrays(points.T) * _weight(mu, coords))[:, None, None]
            total = np.where(c != 0.0, total + c * self.algebra.basis[a], total)
        return total

    def d(self):
        """Exact exterior derivative; new index enters with sign (-1)^position."""
        if self.degree + 1 > MAX_DEGREE:
            raise GeometryError(f"derivative would exceed degree {MAX_DEGREE}")
        comps = {}
        for (a, mu), e in self.components.items():
            for nu in range(self.dim):
                if nu in mu:
                    continue
                de = differentiate(e, nu + 1)
                if _is_zero(de):
                    continue
                pos = sum(1 for m in mu if m < nu)
                if pos % 2:
                    de = neg_(de)
                new_mu = tuple(sorted(mu + (nu,)))
                prev = comps.get((a, new_mu))
                comps[(a, new_mu)] = add_(prev, de) if prev is not None else de
        return FormField(self.algebra, self.degree + 1, self.dim, comps)

    def __add__(self, other):
        if (other.algebra is not self.algebra and other.algebra.name != self.algebra.name) \
                or other.degree != self.degree or other.dim != self.dim:
            raise GeometryError("can only add forms of matching degree, dim, algebra")
        comps = dict(self.components)
        for k, e in other.components.items():
            prev = comps.get(k)
            comps[k] = add_(prev, e) if prev is not None else e
        return FormField(self.algebra, self.degree, self.dim, comps)

    def __neg__(self):
        return FormField(self.algebra, self.degree, self.dim,
                         {k: neg_(e) for k, e in self.components.items()})

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, factor):
        return FormField(self.algebra, self.degree, self.dim,
                         {k: mul_(num(factor), e) for k, e in self.components.items()})

    def map_algebra(self, matrix, algebra):
        """Push values through a linear map given by its basis matrix.

        matrix[a_target, a_source] in the two shipped bases.
        """
        matrix = np.asarray(matrix)
        if matrix.shape != (algebra.dim, self.algebra.dim):
            raise GeometryError(f"linear map shape {matrix.shape} does not send "
                                f"{self.algebra.name} into {algebra.name}")
        comps = {}
        for (a, mu), e in self.components.items():
            for a2 in range(algebra.dim):
                c = matrix[a2, a]
                if abs(c) < 1e-15:
                    continue
                term = mul_(num(float(c)), e)
                prev = comps.get((a2, mu))
                comps[(a2, mu)] = add_(prev, term) if prev is not None else term
        return FormField(algebra, self.degree, self.dim, comps)

    @property
    def is_structurally_zero(self):
        return not self.components

    def max_abs_on_grid(self, points):
        """Largest evaluation norm over sample points and coordinate vector tuples."""
        return _max_norm_on_directions(self.dim, self.degree, points, self.at_points)

    def text_components(self):
        return {f"{a},{''.join(str(m + 1) for m in mu)}" if mu else str(a + 1):
                to_text(e) for (a, mu), e in sorted(self.components.items())}

    def __repr__(self):
        return (f"<FormField deg={self.degree} dim={self.dim} "
                f"algebra={self.algebra.name} terms={len(self.components)}>")


def _weight(mu, vecs):
    """det(v_i[mu_j]) for one point, or for N points when each v is (dim, N)."""
    if len(mu) == 0:
        return 1.0
    if len(mu) == 1:
        return vecs[0][mu[0]]
    if len(mu) == 2:
        return vecs[0][mu[0]] * vecs[1][mu[1]] - vecs[0][mu[1]] * vecs[1][mu[0]]
    rows = np.array([[v[m] for m in mu] for v in vecs])
    return np.linalg.det(rows if rows.ndim == 2 else rows.transpose(2, 0, 1))


def _point_arrays(form, points, vectors):
    if len(vectors) != form.degree:
        raise EvalError(f"degree-{form.degree} field needs {form.degree} vectors, "
                        f"got {len(vectors)}")
    points = np.asarray(points, dtype=float)
    vecs = [np.asarray(v, dtype=float) for v in vectors]
    if points.ndim != 2:
        raise EvalError(f"points have shape {points.shape}, expected (N, {form.dim})")
    if points.shape[1] != form.dim:
        raise EvalError(f"point has {points.shape[1]} coordinates, expected {form.dim}")
    if any(v.shape != points.shape for v in vecs):
        raise EvalError(f"vectors must match the points' shape {points.shape}")
    return points, vecs


def _coefficient_table(form):
    """{mu: {a: Expr}} view of a form's sparse components."""
    table = {}
    for (a, mu), e in form.components.items():
        table.setdefault(mu, {})[a] = e
    return table


def square_wedge(A):
    """Commutator square of a degree-1 form: value [A(u), A(v)] on (u, v)."""
    if A.degree != 1:
        raise GeometryError("square wedge is defined for degree-1 forms")
    f = A.algebra.structure_constants()
    table = {mu[0]: row for mu, row in _coefficient_table(A).items()}
    comps = {}
    for m in sorted(table):
        for n in sorted(table):
            if m >= n:
                continue
            for b, eb in table[m].items():
                for c, ec in table[n].items():
                    for a in range(A.algebra.dim):
                        coef = f[a, b, c]
                        if abs(coef) < 1e-14:
                            continue
                        term = mul_(num(float(coef)), eb, ec)
                        key = (a, (m, n))
                        prev = comps.get(key)
                        comps[key] = add_(prev, term) if prev is not None else term
    return FormField(A.algebra, 2, A.dim, comps)


def action_wedge(tensor, A, omega, algebra=None):
    """Antisymmetrized pairing of a degree-1 form through an action tensor.

    tensor[a, b, c]: image basis coordinate a from acting on e_c by e_b.
    Degree-1 omega gives components D(A_m, w_n) - D(A_n, w_m); degree-2
    omega gives D(A_m, w_nr) - D(A_n, w_mr) + D(A_r, w_mn).
    """
    if A.degree != 1:
        raise GeometryError("the acting form must have degree 1")
    if omega.degree not in (1, 2):
        raise GeometryError("action wedge implemented for degree-1 and degree-2 targets")
    algebra = algebra or omega.algebra
    tensor = np.asarray(tensor)
    a_tab = {mu[0]: row for mu, row in _coefficient_table(A).items()}
    w_tab = _coefficient_table(omega)

    def pair(m, w_mu):
        """Expr coordinates of D(A_m, omega_{w_mu}), or None."""
        row_a = a_tab.get(m)
        row_w = w_tab.get(w_mu)
        if not row_a or not row_w:
            return None
        out = {}
        for b, eb in row_a.items():
            for c, ec in row_w.items():
                for a in range(algebra.dim):
                    coef = tensor[a, b, c]
                    if abs(coef) < 1e-14:
                        continue
                    term = mul_(num(float(coef)), eb, ec)
                    prev = out.get(a)
                    out[a] = add_(prev, term) if prev is not None else term
        return out

    comps = {}

    def accumulate(target_mu, contribution, sign):
        if contribution is None:
            return
        for a, e in contribution.items():
            term = neg_(e) if sign < 0 else e
            key = (a, target_mu)
            prev = comps.get(key)
            comps[key] = add_(prev, term) if prev is not None else term

    if omega.degree == 1:
        coords = sorted(set(a_tab) | {mu[0] for mu in w_tab})
        for m in coords:
            for n in coords:
                if m >= n:
                    continue
                accumulate((m, n), pair(m, (n,)), +1)
                accumulate((m, n), pair(n, (m,)), -1)
        return FormField(algebra, 2, A.dim, comps)

    for m, n, r in combinations(range(A.dim), 3):
        accumulate((m, n, r), pair(m, (n, r)), +1)
        accumulate((m, n, r), pair(n, (m, r)), -1)
        accumulate((m, n, r), pair(r, (m, n)), +1)
    return FormField(algebra, 3, A.dim, comps)


def curvature(A):
    """dA + A wedge A, no half factor: value dA(u,v) + [A(u), A(v)]."""
    return A.d() + square_wedge(A)


def fake_curvature_form(cm, A, B):
    """Curvature of A plus the boundary image of B (a degree-2 obstruction)."""
    return curvature(A) + B.map_algebra(cm.dt_matrix(), cm.G.algebra)


def overlap_curvature(cm, A_i, a):
    """da + a wedge a + action-wedge of A_i into a (degree 2, H-valued)."""
    return a.d() + square_wedge(a) + action_wedge(cm.dalpha_matrix(), A_i, a)


def three_curvature(cm, A, B):
    """dB + action-wedge of A into B (degree 3, H-valued)."""
    return B.d() + action_wedge(cm.dalpha_matrix(), A, B)


class PointwiseForm:
    """Form whose values only exist numerically: fn(point, *vectors) -> matrix."""

    def __init__(self, algebra, degree, dim, fn):
        self.algebra = algebra
        self.degree = int(degree)
        self.dim = int(dim)
        self._fn = fn

    @classmethod
    def from_field(cls, field):
        return StackedForm(field.algebra, field.degree, field.dim, field.at_points)

    def at(self, point, *vectors):
        if len(vectors) != self.degree:
            raise EvalError(f"degree-{self.degree} field needs {self.degree} vectors, "
                            f"got {len(vectors)}")
        return self._fn(point, *vectors)

    def at_points(self, points, *vectors):
        """`at` at every row of points (N, dim) with the matching vector rows."""
        points, vecs = _point_arrays(self, points, vectors)
        return np.array([self.at(tuple(p), *(v[i] for v in vecs))
                         for i, p in enumerate(points)])

    def __add__(self, other):
        if other.degree != self.degree or other.dim != self.dim:
            raise GeometryError("can only add forms of matching degree and dim")
        return StackedForm(self.algebra, self.degree, self.dim,
                           lambda p, *vs: self.at_points(p, *vs) + other.at_points(p, *vs))

    def __neg__(self):
        return StackedForm(self.algebra, self.degree, self.dim,
                           lambda p, *vs: -self.at_points(p, *vs))

    def __sub__(self, other):
        return self + (-other)

    def __repr__(self):
        return f"<{type(self).__name__} deg={self.degree} dim={self.dim}>"


class StackedForm(PointwiseForm):
    """Form given on point stacks: fn(points, *vectors) -> (N, n, n) values,
    each with the bits it would get alone."""

    def at(self, point, *vectors):
        return self.at_points(np.asarray(point, dtype=float)[None],
                              *(np.asarray(v, dtype=float)[None] for v in vectors))[0]

    def at_points(self, points, *vectors):
        points, vecs = _point_arrays(self, points, vectors)
        return self._fn(points, *vecs)


def action_wedge_pointwise(cm, A, omega):
    """Numeric counterpart of `action_wedge` through the module's dalpha."""
    if omega.degree == 1:
        def fn(p, u, v):
            return (cm.dalpha(A.at_points(p, u), omega.at_points(p, v))
                    - cm.dalpha(A.at_points(p, v), omega.at_points(p, u)))
        return StackedForm(cm.H.algebra, 2, omega.dim, fn)
    if omega.degree == 2:
        def fn3(p, u, v, w):
            return (cm.dalpha(A.at_points(p, u), omega.at_points(p, v, w))
                    - cm.dalpha(A.at_points(p, v), omega.at_points(p, u, w))
                    + cm.dalpha(A.at_points(p, w), omega.at_points(p, u, v)))
        return StackedForm(cm.H.algebra, 3, omega.dim, fn3)
    raise GeometryError("action wedge implemented for degree-1 and degree-2 targets")


def forms_close(f1, f2, points, tol):
    """Max pointwise difference over sample points and coordinate directions."""
    if f1.degree != f2.degree or f1.dim != f2.dim:
        raise GeometryError("cannot compare forms of different degree or dim")
    worst = _max_norm_on_directions(
        f1.dim, f1.degree, points, lambda p, *vs: f1.at_points(p, *vs) - f2.at_points(p, *vs))
    return worst, worst <= tol


def _max_norm_on_directions(dim, degree, points, fn):
    """The largest `max_norm` of fn(points, *vectors) over the tuples of
    coordinate vectors, each tuple sampled with one call on the point stack."""
    if len(points) == 0:
        return 0.0
    points = np.asarray(points, dtype=float)
    return max((max_norm(fn(points, *(np.broadcast_to(v, points.shape) for v in vs)))
                for vs in combinations(np.eye(dim), degree)), default=0.0)
