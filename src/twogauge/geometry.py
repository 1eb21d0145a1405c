"""Paths and bigons on R^n with sitting instants.

Every shipped parametrization is constant on a margin near the ends of its
parameter interval, of width SITTING = 0.1. That makes concatenation
smooth without matching derivatives at the seam: both sides arrive with all
derivatives zero. The margin is produced by the standard smooth step built
from exp(-1/u).

Velocities are exact: expression-backed curves differentiate symbolically,
combinators chain closed-form derivatives, and the ramp's derivative is
computed analytically.

Array contract. The closures behind a Path or Bigon take either floats or
float arrays that broadcast together (a surface sweep passes s with shape
(S, 1) and t with shape (1, T)), and return values with the coordinates on
the last axis: shape broadcast(s, t) + (dim,), or anything that broadcasts
to it, such as a constant (dim,) vector. Every array value has the same
bits as the scalar call at that point. Elementwise numpy arithmetic rounds
like Python's; the ramps and integer powers, whose numpy versions round
differently, run `math` element by element on the 1-D parameter vectors
(O(S + T) calls, not O(S * T)). Combinators that branch on a parameter
evaluate each side only on its own points. The public `value`, `d_s`,
`d_t` and `velocity` accept either form; a scalar call is the one-point
case and returns shape (dim,).

Parametrization conventions, fixed here and relied on elsewhere:

    concatenation   (p1 then p2)(s) = p1(2s) for s <= 1/2, else p2(2s - 1)
    reversal        (reversed p)(s) = p(1 - s)
    bigon vertical  stack in t: S1(s, 2t) then S2(s, 2t - 1)
    bigon horizontal side by side in s: S1(2s, t) then S2(2s - 1, t)
"""

import math

import numpy as np

from .errors import CompositionError, GeometryError
from .expr import compile_expr, differentiate, max_var_index, parse

SITTING = 0.1
TAU_GEO = 1e-9
# Bigon.vertical and .horizontal: how far the shared boundaries may differ
TAU_JOIN = 1e-7


def _each(fn, x):
    """fn on every element of a float array, with the scalar rounding."""
    return np.frompyfunc(fn, 1, 1)(x).astype(float)


def _power(x, k):
    """x ** k for an integer k, with Python's rounding on arrays too."""
    return _each(lambda v: v ** k, x) if isinstance(x, np.ndarray) else x ** k


def _col(x):
    """A scalar field as a factor of vector values (coordinates last)."""
    return x[..., None] if isinstance(x, np.ndarray) else x


def _stack(values):
    """Coordinate values (floats or arrays) as one vector value."""
    for v in values:
        if isinstance(v, np.ndarray):
            return np.stack(np.broadcast_arrays(*values), axis=-1)
    return np.array(values)


def _call(fn, point):
    """A compiled expression at a point of floats or of arrays."""
    for c in point:
        if isinstance(c, np.ndarray):
            return fn.arrays(point)
    return fn(point)


def _piecewise(k, below, above):
    """The closure taking below(*args) where args[k] <= 1/2, else above(*args).

    A single point branches directly. On arrays each side runs only on its
    own points, since an expression may fail outside its half. When args[k]
    varies along one axis, the points are taken whole along that axis, so
    the other parameters keep their shapes; otherwise they are flattened.
    """
    def piecewise(*args):
        x = args[k]
        if not isinstance(x, np.ndarray) or x.size == 1:
            if isinstance(x, np.ndarray):
                x = x.ravel()[0]
            return below(*args) if x <= 0.5 else above(*args)
        return _piecewise_arrays(k, args, below, above)
    return piecewise


def _piecewise_arrays(k, args, below, above):
    args = [np.asarray(a, dtype=float) for a in args]
    shape = np.broadcast_shapes(*(a.shape for a in args))
    args = [a.reshape((1,) * (len(shape) - a.ndim) + a.shape) for a in args]
    varying = [ax for ax, n in enumerate(args[k].shape) if n > 1]
    if not varying:  # no points at all
        return below(*args)
    if len(varying) > 1:
        flat = [np.broadcast_to(a, shape).ravel() for a in args]
        return _piecewise_arrays(k, flat, below, above).reshape(shape + (-1,))
    ax = varying[0]
    low = (args[k] <= 0.5).ravel()
    out = None
    for fn, idx in ((below, np.flatnonzero(low)), (above, np.flatnonzero(~low))):
        if not len(idx):
            continue
        sub = [np.take(a, idx, axis=ax) if a.shape[ax] > 1 else a for a in args]
        part = np.asarray(fn(*sub), dtype=float)
        if out is None:
            out = np.empty(shape + part.shape[-1:])
        out[(slice(None),) * ax + (idx,)] = np.broadcast_to(
            part, shape[:ax] + (len(idx),) + shape[ax + 1:] + part.shape[-1:])
    return out


def _sample(fn, dim, *params):
    """Evaluate a closure on array parameters: shape broadcast(params) + (dim,).

    Zero-dimensional parameters are the scalar call.
    """
    if all(np.ndim(p) == 0 for p in params):
        return np.asarray(fn(*(float(p) for p in params)), dtype=float)
    params = [np.asarray(p, dtype=float) for p in params]
    shape = np.broadcast_shapes(*(p.shape for p in params))
    out = np.asarray(fn(*params), dtype=float)
    try:
        return np.broadcast_to(out, shape + (dim,))
    except ValueError:
        raise GeometryError(
            f"closure returned shape {out.shape} for parameters of shape {shape}; "
            "closures must broadcast over array parameters") from None


def _bump(u):
    return math.exp(-1.0 / u) if u > 0.0 else 0.0


def _bump_derivative(u):
    return math.exp(-1.0 / u) / (u * u) if u > 0.0 else 0.0


def smooth_step(u):
    """C-infinity monotone step: 0 for u <= 0, 1 for u >= 1."""
    if u <= 0.0:
        return 0.0
    if u >= 1.0:
        return 1.0
    b = _bump(u)
    c = _bump(1.0 - u)
    return b / (b + c)


def smooth_step_derivative(u):
    if u <= 0.0 or u >= 1.0:
        return 0.0
    b = _bump(u)
    c = _bump(1.0 - u)
    db = _bump_derivative(u)
    dc = _bump_derivative(1.0 - u)
    return (db * c + b * dc) / (b + c) ** 2


def ramp(s):
    """Sitting ramp: 0 on [0, SITTING], 1 on [1 - SITTING, 1], smooth between."""
    if isinstance(s, np.ndarray):
        return _each(ramp, s)
    return smooth_step((s - SITTING) / (1.0 - 2.0 * SITTING))


def ramp_derivative(s):
    """The exact derivative of `ramp`."""
    if isinstance(s, np.ndarray):
        return _each(ramp_derivative, s)
    w = 1.0 - 2.0 * SITTING
    return smooth_step_derivative((s - SITTING) / w) / w


class Reparam:
    """Smooth map [0,1] -> [0,1] fixing the ends, with exact derivative."""

    def __init__(self, fn, dfn, label="reparam"):
        self._fn = fn
        self._dfn = dfn
        self.label = label
        if abs(fn(0.0)) > TAU_GEO or abs(fn(1.0) - 1.0) > TAU_GEO:
            raise GeometryError(f"{label} must fix 0 and 1")
        prev = 0.0
        for k in range(1, 65):
            v = fn(k / 64)
            if v < prev - 1e-12:
                raise GeometryError(f"{label} is not monotone near s={k / 64:.3f}")
            prev = v

    def __call__(self, s):
        return self._fn(s)

    def derivative(self, s):
        return self._dfn(s)

    @classmethod
    def sitting(cls):
        """The sitting ramp itself."""
        return cls(ramp, ramp_derivative, f"sitting({SITTING})")

    @classmethod
    def power_of_sitting(cls, exponent):
        """The sitting ramp raised to an integer power."""
        k = int(exponent)
        return cls(lambda s: _power(ramp(s), k),
                   lambda s: k * _power(ramp(s), k - 1) * ramp_derivative(s) if k > 1
                   else ramp_derivative(s),
                   f"sitting({SITTING})^{k}")

    @classmethod
    def from_expr(cls, text):
        e = parse(text)
        if max_var_index(e) > 1:
            raise GeometryError("a reparametrization uses the single variable x1")
        fn = compile_expr(e)
        dfn = compile_expr(differentiate(e, 1))
        return cls(lambda s: _call(fn, (s,)), lambda s: _call(dfn, (s,)), text)


class Path:
    """Smooth map [0,1] -> R^dim with exact velocity."""

    def __init__(self, value, velocity, dim):
        self._value = value
        self._velocity = velocity
        self.dim = int(dim)
        self.start = np.asarray(value(0.0), dtype=float)
        self.end = np.asarray(value(1.0), dtype=float)

    # scalar calls skip _sample's checks (a bigon's value: 5 against 7 us a
    # call); quadrature oracles make hundreds of thousands of them
    def value(self, s):
        if isinstance(s, np.ndarray):
            return _sample(self._value, self.dim, s)
        return np.asarray(self._value(float(s)), dtype=float)

    def velocity(self, s):
        if isinstance(s, np.ndarray):
            return _sample(self._velocity, self.dim, s)
        return np.asarray(self._velocity(float(s)), dtype=float)

    @classmethod
    def from_exprs(cls, texts):
        """Coordinate expressions in x1; the sitting ramp is pre-composed."""
        exprs = [parse(t) if isinstance(t, str) else t for t in texts]
        for e in exprs:
            if max_var_index(e) > 1:
                raise GeometryError("path coordinates use the single variable x1")
        fns = [compile_expr(e) for e in exprs]
        dfns = [compile_expr(differentiate(e, 1)) for e in exprs]

        def value(s):
            u = ramp(s)
            return _stack([_call(f, (u,)) for f in fns])

        def velocity(s):
            u = ramp(s)
            du = ramp_derivative(s)
            return _stack([_call(f, (u,)) * du for f in dfns])

        return cls(value, velocity, len(exprs))

    @classmethod
    def line(cls, p0, p1):
        """The segment from p0 to p1, through the sitting ramp."""
        p0 = np.asarray(p0, dtype=float)
        p1 = np.asarray(p1, dtype=float)
        d = p1 - p0
        return cls(lambda s: p0 + _col(ramp(s)) * d,
                   lambda s: _col(ramp_derivative(s)) * d, len(p0))

    @classmethod
    def arc(cls, center, radius, angle0, angle1):
        """A circular arc from angle0 to angle1, through the sitting ramp."""
        center = np.asarray(center, dtype=float)
        span = angle1 - angle0

        # numpy's sin and cos round like math's, on arrays and on floats
        def value(s):
            th = angle0 + ramp(s) * span
            return center + radius * _stack([np.cos(th), np.sin(th)])

        def velocity(s):
            th = angle0 + ramp(s) * span
            return _col(radius * span * ramp_derivative(s)) * _stack([-np.sin(th), np.cos(th)])

        return cls(value, velocity, 2)

    @classmethod
    def constant(cls, point):
        p = np.asarray(point, dtype=float)
        z = np.zeros_like(p)
        return cls(lambda s: p, lambda s: z, len(p))

    def compose(self, other):
        """This path first, then `other`; endpoints must meet within TAU_GEO."""
        if other.dim != self.dim:
            raise CompositionError("paths live in different dimensions")
        if np.linalg.norm(self.end - other.start) > TAU_GEO:
            raise CompositionError("paths do not share the junction point",
                                   source=other.start.tolist(),
                                   target=self.end.tolist())
        p1, p2 = self, other

        value = _piecewise(0, lambda s: p1._value(2 * s),
                           lambda s: p2._value(2 * s - 1))
        velocity = _piecewise(0, lambda s: 2 * np.asarray(p1._velocity(2 * s)),
                              lambda s: 2 * np.asarray(p2._velocity(2 * s - 1)))
        return Path(value, velocity, self.dim)

    def reverse(self):
        return Path(lambda s: self._value(1 - s),
                    lambda s: -np.asarray(self._velocity(1 - s)), self.dim)

    def reparametrize(self, phi):
        return Path(lambda s: self._value(phi(s)),
                    lambda s: _col(phi.derivative(s)) * np.asarray(self._velocity(phi(s))),
                    self.dim)

    def certify_sitting(self, delta=SITTING):
        """Max deviation from the endpoints inside margins of width `delta`,
        at 25 points each, and whether it is within TAU_GEO."""
        worst = 0.0
        for k in range(25):
            s = delta * 0.95 * k / 24
            worst = max(worst,
                        float(np.linalg.norm(self.value(s) - self.start)),
                        float(np.linalg.norm(self.velocity(s))),
                        float(np.linalg.norm(self.value(1 - s) - self.end)),
                        float(np.linalg.norm(self.velocity(1 - s))))
        return worst, worst <= TAU_GEO


class Bigon:
    """Smooth map [0,1]^2 -> R^dim between two paths sharing endpoints.

    t = 0 traces the source path, t = 1 the target path; rows freeze near
    t in {0, 1} and the whole map is constant near s in {0, 1}.
    """

    def __init__(self, value, d_s, d_t, dim):
        self._value = value
        self._ds = d_s
        self._dt = d_t
        self.dim = int(dim)

    # scalar calls skip _sample's checks, as Path's do
    def value(self, s, t):
        if isinstance(s, np.ndarray) or isinstance(t, np.ndarray):
            return _sample(self._value, self.dim, s, t)
        return np.asarray(self._value(float(s), float(t)), dtype=float)

    def d_s(self, s, t):
        if isinstance(s, np.ndarray) or isinstance(t, np.ndarray):
            return _sample(self._ds, self.dim, s, t)
        return np.asarray(self._ds(float(s), float(t)), dtype=float)

    def d_t(self, s, t):
        if isinstance(s, np.ndarray) or isinstance(t, np.ndarray):
            return _sample(self._dt, self.dim, s, t)
        return np.asarray(self._dt(float(s), float(t)), dtype=float)

    @property
    def corner_start(self):
        return self.value(0.0, 0.0)

    @property
    def corner_end(self):
        return self.value(1.0, 0.0)

    def source(self):
        return Path(lambda s: self._value(s, 0.0),
                    lambda s: self._ds(s, 0.0), self.dim)

    def target(self):
        return Path(lambda s: self._value(s, 1.0),
                    lambda s: self._ds(s, 1.0), self.dim)

    @classmethod
    def from_exprs(cls, texts):
        """Coordinate expressions in x1 (sweep) and x2 (deformation).

        Both parameters are pre-composed with the sitting ramp. The raw
        expressions must already be s-constant at x1 in {0, 1} for the
        result to be a bigon; `certify` checks the outcome.
        """
        exprs = [parse(t) if isinstance(t, str) else t for t in texts]
        for e in exprs:
            if max_var_index(e) > 2:
                raise GeometryError("bigon coordinates use x1 and x2 only")
        fns = [compile_expr(e) for e in exprs]
        dsf = [compile_expr(differentiate(e, 1)) for e in exprs]
        dtf = [compile_expr(differentiate(e, 2)) for e in exprs]

        def value(s, t):
            q = (ramp(s), ramp(t))
            return _stack([_call(f, q) for f in fns])

        def d_s(s, t):
            q = (ramp(s), ramp(t))
            du = ramp_derivative(s)
            return _stack([_call(f, q) * du for f in dsf])

        def d_t(s, t):
            q = (ramp(s), ramp(t))
            dv = ramp_derivative(t)
            return _stack([_call(f, q) * dv for f in dtf])

        return cls(value, d_s, d_t, len(exprs))

    @classmethod
    def interpolate(cls, p0, p1):
        """Straight-line sweep between two paths with the same endpoints
        (within TAU_GEO), through the sitting ramp in t."""
        if p0.dim != p1.dim:
            raise CompositionError("paths live in different dimensions")
        if (np.linalg.norm(p0.start - p1.start) > TAU_GEO
                or np.linalg.norm(p0.end - p1.end) > TAU_GEO):
            raise CompositionError("interpolation needs paths with equal endpoints",
                                   source=[p0.start.tolist(), p0.end.tolist()],
                                   target=[p1.start.tolist(), p1.end.tolist()])

        def value(s, t):
            w = _col(ramp(t))
            return (1 - w) * p0.value(s) + w * p1.value(s)

        def d_s(s, t):
            w = _col(ramp(t))
            return (1 - w) * p0.velocity(s) + w * p1.velocity(s)

        def d_t(s, t):
            return _col(ramp_derivative(t)) * (p1.value(s) - p0.value(s))

        return cls(value, d_s, d_t, p0.dim)

    @classmethod
    def identity(cls, path):
        z = np.zeros(path.dim)
        return cls(lambda s, t: path.value(s),
                   lambda s, t: path.velocity(s),
                   lambda s, t: z, path.dim)

    @classmethod
    def constant(cls, point):
        return cls.identity(Path.constant(point))

    @classmethod
    def thin_sliver(cls, path, phi0, phi1):
        """Reparametrization sweep inside one path, through the sitting ramp
        in t; sweeps zero area."""

        def mix(s, t):
            w = ramp(t)
            return (1 - w) * phi0(s) + w * phi1(s)

        def value(s, t):
            return path.value(mix(s, t))

        def d_s(s, t):
            w = ramp(t)
            du = (1 - w) * phi0.derivative(s) + w * phi1.derivative(s)
            return _col(du) * path.velocity(mix(s, t))

        def d_t(s, t):
            return (_col(ramp_derivative(t) * (phi1(s) - phi0(s)))
                    * path.velocity(mix(s, t)))

        return cls(value, d_s, d_t, path.dim)

    def vertical(self, other):
        """Stack in the deformation direction: self first, then `other`.

        Self's target and other's source must agree within TAU_JOIN at 9
        points.
        """
        if other.dim != self.dim:
            raise CompositionError("bigons live in different dimensions")
        worst = max(np.linalg.norm(self.value(s, 1.0) - other.value(s, 0.0))
                    for s in np.linspace(0, 1, 9))
        if worst > TAU_JOIN:
            raise CompositionError(
                f"target and source paths differ by {worst:.2e}")
        b1, b2 = self, other

        value = _piecewise(1, lambda s, t: b1._value(s, 2 * t),
                           lambda s, t: b2._value(s, 2 * t - 1))
        d_s = _piecewise(1, lambda s, t: b1._ds(s, 2 * t),
                         lambda s, t: b2._ds(s, 2 * t - 1))
        d_t = _piecewise(1, lambda s, t: 2 * np.asarray(b1._dt(s, 2 * t)),
                         lambda s, t: 2 * np.asarray(b2._dt(s, 2 * t - 1)))
        return Bigon(value, d_s, d_t, self.dim)

    def horizontal(self, other):
        """Side by side in the sweep direction: self first, then `other`;
        the corners must meet within TAU_JOIN."""
        if other.dim != self.dim:
            raise CompositionError("bigons live in different dimensions")
        gap = np.linalg.norm(self.value(1.0, 0.0) - other.value(0.0, 0.0))
        if gap > TAU_JOIN:
            raise CompositionError(f"corner points differ by {gap:.2e}",
                                   source=other.value(0.0, 0.0).tolist(),
                                   target=self.value(1.0, 0.0).tolist())
        b1, b2 = self, other

        value = _piecewise(0, lambda s, t: b1._value(2 * s, t),
                           lambda s, t: b2._value(2 * s - 1, t))
        d_s = _piecewise(0, lambda s, t: 2 * np.asarray(b1._ds(2 * s, t)),
                         lambda s, t: 2 * np.asarray(b2._ds(2 * s - 1, t)))
        d_t = _piecewise(0, lambda s, t: b1._dt(2 * s, t),
                         lambda s, t: b2._dt(2 * s - 1, t))
        return Bigon(value, d_s, d_t, self.dim)

    def reverse_t(self):
        """Swap source and target."""
        return Bigon(lambda s, t: self._value(s, 1 - t),
                     lambda s, t: self._ds(s, 1 - t),
                     lambda s, t: -np.asarray(self._dt(s, 1 - t)), self.dim)

    def reparametrize_s(self, phi):
        return Bigon(lambda s, t: self._value(phi(s), t),
                     lambda s, t: _col(phi.derivative(s)) * np.asarray(self._ds(phi(s), t)),
                     lambda s, t: self._dt(phi(s), t), self.dim)

    def reparametrize_t(self, phi):
        return Bigon(lambda s, t: self._value(s, phi(t)),
                     lambda s, t: self._ds(s, phi(t)),
                     lambda s, t: _col(phi.derivative(t)) * np.asarray(self._dt(s, phi(t))),
                     self.dim)

    def certify(self, delta=SITTING):
        """Sitting margins of width `delta` in both directions, on 9 rows and
        9 columns; returns (max residual, whether it is within TAU_GEO)."""
        worst = 0.0
        grid = np.linspace(0, 1, 9)
        margin = np.linspace(0, delta * 0.95, 5)
        for t in grid:
            p, q = self.value(0.0, 0.0), self.value(1.0, 0.0)
            for m in margin:
                worst = max(worst,
                            float(np.linalg.norm(self.value(m, t) - p)),
                            float(np.linalg.norm(self.value(1 - m, t) - q)),
                            float(np.linalg.norm(self.d_s(m, t))),
                            float(np.linalg.norm(self.d_t(m, t))),
                            float(np.linalg.norm(self.d_s(1 - m, t))),
                            float(np.linalg.norm(self.d_t(1 - m, t))))
        for s in grid:
            bottom, top = self.value(s, 0.0), self.value(s, 1.0)
            for m in margin:
                worst = max(worst,
                            float(np.linalg.norm(self.value(s, m) - bottom)),
                            float(np.linalg.norm(self.value(s, 1 - m) - top)),
                            float(np.linalg.norm(self.d_t(s, m))),
                            float(np.linalg.norm(self.d_t(s, 1 - m))))
        return worst, worst <= TAU_GEO

    def swept_area(self, n=64):
        """Signed area integral of det(d_s, d_t) (midpoint rule; dim 2 only)."""
        if self.dim != 2:
            raise GeometryError("swept area is defined for plane bigons")
        total = 0.0
        h = 1.0 / n
        for i in range(n):
            for j in range(n):
                s, t = (i + 0.5) * h, (j + 0.5) * h
                u, v = self.d_s(s, t), self.d_t(s, t)
                total += (u[0] * v[1] - u[1] * v[0]) * h * h
        return total


def _pi_path(height):
    up = Path.line((0.0, 0.0), (0.0, height))
    across = Path.line((0.0, height), (1.0, height))
    down = Path.line((1.0, height), (1.0, 0.0))
    return up.compose(across).compose(down)


def shipped_path(name):
    if name == "segment-x":
        return Path.line((0.0, 0.0), (1.0, 0.0))
    if name == "segment-y":
        return Path.line((0.0, 0.0), (0.0, 1.0))
    if name == "circle-arc":
        return Path.arc((0.0, 0.0), 1.0, 0.0, math.pi / 2)
    if name == "full-circle":
        return Path.arc((0.0, 0.0), 1.0, 0.0, 2 * math.pi)
    if name == "constant-origin":
        return Path.constant((0.0, 0.0))
    if name == "pi-detour":
        return _pi_path(1.0)
    raise GeometryError(f"unknown path fixture {name!r}")


def shipped_bigon(name):
    if name == "unit-square":
        return Bigon.interpolate(shipped_path("segment-x"), _pi_path(1.0))
    if name == "half-square-lower":
        return Bigon.interpolate(shipped_path("segment-x"), _pi_path(0.5))
    if name == "half-square-upper":
        return Bigon.interpolate(_pi_path(0.5), _pi_path(1.0))
    if name == "thin-sliver":
        return Bigon.thin_sliver(shipped_path("segment-x"), Reparam.sitting(),
                                 Reparam.power_of_sitting(2))
    if name == "identity-segment":
        return Bigon.identity(shipped_path("segment-x"))
    if name == "constant-origin":
        return Bigon.constant((0.0, 0.0))
    raise GeometryError(f"unknown bigon fixture {name!r}")


PATH_FIXTURES = ["segment-x", "segment-y", "circle-arc", "full-circle",
                 "constant-origin", "pi-detour"]
BIGON_FIXTURES = ["unit-square", "half-square-lower", "half-square-upper",
                  "thin-sliver", "identity-segment", "constant-origin"]
