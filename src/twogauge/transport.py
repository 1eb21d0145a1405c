"""Holonomy integrators and gauge-law checkers.

One routine, `_rk4`, does every integration: classical fourth-order
Runge-Kutta for Y' = M Y (or Y' = Y M) from Y = 1, reprojected to the group
after each step. It takes M at the n + 1 nodes and the n step midpoints and
returns Y at every node; M may carry a stack axis after the step axis, and
then every matrix of the stack is advanced at once with the bits it would
get alone. A step where M is exactly zero at both nodes and the midpoint is
idle: on the sitting margins of every shipped path and bigon the velocity
vanishes, and such a step costs one `renormalize` call at most, with no
product, and the bits of the full step.

Path transport solves W'(s) = -A(c(s))(c'(s)) W(s) on nodes 0 and
k*h + h, midpoints k*h + h/2, h = 1/steps, sampling the path and A at all
of them in one array call. With that sign, a constant field A0 dx1
along the unit x-segment transports to exp(-A0), and concatenation
satisfies

    transport(p1 then p2) = transport(p2) @ transport(p1).

Surface transport over a bigon runs one path transport per row t, on nodes
k*hs with hs = 1/(2N), and forms on the same nodes

    b(t) = integral_s  act(W(s,t)^-1)( B(dS/ds, dS/dt) )  (composite Simpson)

then integrates k'(t) = -k(t) b(t) outward with `_rk4` in right-multiplying
form; the surface element is h = k(1). A row's sweep in s needs no other
row, so rows are swept together: blocks of rows, at most MAX_BLOCK_POINTS
sample points each, are sampled on the (s-node x t-row) grid in one call to
the bigon's array closures and to the forms, then advanced by one `_rk4`
call. Memory stays O(block) for any grid. Each distinct row is swept once:
a row whose samples equal those of the row before it bit for bit, as the
rows on the sitting margins in t do, is swept with it and copied out. A
grid-N call samples 2N + 1 rows, 2N + 2 when the t-steps do not land
exactly on 1, and sweeps only the distinct ones: 53 of 65 rows of the unit
square at grid 32, with 9 of its 64 s-steps and 6 of its 32 t-steps idle.
The t-integration stays one matrix. For a fake-flat connection the pair
(source holonomy, h) is a valid 2-cell: t(h) g_source = g_target. The
act(W^-1) direction is the one that makes that law hold; flipping it breaks
the law at O(1) (covered by a regression test).
"""

import numpy as np

from .errors import ConfigError, GeometryError
from .forms import (
    FormField, StackedForm, action_wedge_pointwise, curvature,
    fake_curvature_form, forms_close, square_wedge, three_curvature,
)
from .geometry import Path
from .groups import is_integer, max_norm
from .maps import maurer_cartan, right_log_derivative
from .report import NO_SAMPLES, ValidationReport
from .twocells import TwoCell

DEFAULT_STEPS = 1000
DEFAULT_GRID = 128
TAU_FAKE = 1e-6
MAX_BLOCK_POINTS = 1 << 16  # sample points (nodes and midpoints) per block of rows


class LocalConnection:
    """Connection data on one chart: 1-form A in g, 2-form B in h."""

    def __init__(self, cm, A, B):
        if A.degree != 1 or B.degree != 2:
            raise GeometryError("a local connection is a (1-form, 2-form) pair")
        if A.dim != B.dim:
            raise GeometryError("A and B live on different chart dimensions")
        if A.algebra.dim != cm.G.algebra.dim or B.algebra.dim != cm.H.algebra.dim:
            raise GeometryError("connection values do not match the crossed module")
        self.cm = cm
        self.A = A
        self.B = B
        self.dim = A.dim

    @property
    def is_symbolic(self):
        return isinstance(self.A, FormField) and isinstance(self.B, FormField)

    def fake_curvature(self):
        """F_A + dt(B), symbolic connections only."""
        if not self.is_symbolic:
            raise GeometryError("fake curvature form needs symbolic components")
        return fake_curvature_form(self.cm, self.A, self.B)

    def fake_curvature_at(self, point, u, v):
        """F_A(u,v) + dt(B(u,v)), dA by central differences, at one point or
        at each row of (N, dim) stacks of points and vectors."""
        h = 1e-5
        p, u, v = (np.asarray(a, dtype=float) for a in (point, u, v))
        if p.ndim == 1:
            return self.fake_curvature_at(p[None], u[None], v[None])[0]
        A = self.A.at_points
        dAu = (A(p + h * u, v) - A(p - h * u, v)) / (2 * h)
        dAv = (A(p + h * v, u) - A(p - h * v, u)) / (2 * h)
        Au, Av = A(p, u), A(p, v)
        F = dAu - dAv + (Au @ Av - Av @ Au)
        return F + self.cm.dt(self.B.at_points(p, u, v))


def fake_flat_connection(cm, A):
    """Symbolic connection with B = -dt^(-1)(F_A); needs aligned dt = identity."""
    M = cm.dt_matrix()
    if M.shape[0] != M.shape[1] or np.linalg.norm(M - np.eye(M.shape[0])) > 1e-12:
        raise GeometryError("automatic fake-flat completion needs an identity dt")
    F = curvature(A)
    B = (-F).map_algebra(np.eye(M.shape[0]), cm.H.algebra)
    return LocalConnection(cm, A, B)


def _rk4(group, M_nodes, M_mids, h, right=False):
    """Classical RK4 for Y' = M Y (Y' = Y M if right), Y = identity at node 0.

    M_nodes[k] is M at node k and M_mids[k] is M at the midpoint of step k;
    each may be one matrix or a stack of them, advanced together. Every
    step is reprojected to the group. Returns Y at every node.

    A step where M is exactly zero at both nodes and the midpoint (an idle
    step, on a sitting margin) takes no product: its increment is +-0, so
    the step gives renormalize(Y), with Y's bits, whenever Y is finite and
    has no negative zero (see `_passes_zeros`); otherwise it runs in full.
    Once renormalize returns its argument itself, the rest of the idle run
    is that Y, with no further calls.
    """
    mul = (lambda M, X: X @ M) if right else (lambda M, X: M @ X)
    idle = _idle_steps(M_nodes, M_mids)
    Y = group.identity
    Ys = [Y]
    settled = False  # Y is renormalize(Y) itself, and every step since was idle
    for k, (M1, M2, M4) in enumerate(zip(M_nodes, M_mids, M_nodes[1:])):
        if idle[k] and (settled or _passes_zeros(Y)):
            if not settled:
                # Y + (+-0) is Y, widened to the shape and type of the step
                shape = np.broadcast_shapes(Y.shape, np.shape(M1), np.shape(M2), np.shape(M4))
                dtype = np.result_type(Y, M1, M2, M4)
                if Y.shape != shape or Y.dtype != dtype:
                    Y = np.array(np.broadcast_to(Y, shape), dtype=dtype, order="C")
                X, Y = Y, group.renormalize(Y)
                settled = Y is X
        else:
            Y = group.renormalize(_rk4_step(mul, M1, M2, M4, Y, h))
            settled = False
        Ys.append(Y)
    return Ys


def _rk4_step(mul, M1, M2, M4, Y, h):
    """One RK4 increment of Y, before reprojection."""
    K1 = mul(M1, Y)
    K2 = mul(M2, Y + (h / 2) * K1)
    K3 = mul(M2, Y + (h / 2) * K2)
    K4 = mul(M4, Y + h * K3)
    return Y + (h / 6) * (K1 + 2 * K2 + 2 * K3 + K4)


def _idle_steps(M_nodes, M_mids):
    """For each step, whether M is exactly zero (+0 or -0) at both its
    nodes and its midpoint, in every matrix of the stack."""
    zero_nodes = ~np.asarray(M_nodes).reshape(len(M_nodes), -1).any(axis=1)
    zero_mids = ~np.asarray(M_mids).reshape(len(M_mids), -1).any(axis=1)
    steps = min(len(M_mids), len(M_nodes) - 1)
    return zero_nodes[:steps] & zero_mids[:steps] & zero_nodes[1:steps + 1]


def _passes_zeros(Y):
    """Whether Y + z has Y's bits for every z = +0 or -0: Y is finite and no
    entry, real or imaginary part, is a negative zero."""
    for part in ((Y.real, Y.imag) if np.iscomplexobj(Y) else (Y,)):
        if not np.isfinite(part).all() or (np.signbit(part) & (part == 0)).any():
            return False
    return True


def path_holonomy(cm_or_group, A, path, steps=DEFAULT_STEPS):
    """Transport the 1-arrow group along a path: solves W' = -A(c') W."""
    group = cm_or_group.G if hasattr(cm_or_group, "G") else cm_or_group
    if group.kind != "matrix":
        raise GeometryError("transport integrates matrix groups only")
    if group.trivial:
        return group.identity
    h = 1.0 / steps
    k = np.arange(steps)
    ss = np.concatenate([[0.0], k * h + h, k * h + h / 2])
    M = -A.at_points(path.value(ss), path.velocity(ss))
    return _rk4(group, M[:steps + 1], M[steps + 1:], h)[-1]


def holonomy_product(group, elements):
    """Fold transports of consecutive pieces: later pieces multiply on the left."""
    out = group.identity
    for w in elements:
        out = group.mul(w, out)
    return out


class SurfaceResult:
    """Outcome of a surface transport: 2-cell candidate plus diagnostics."""

    def __init__(self, cell, fake_residual, flat, target_holonomy, grid):
        self.cell = cell
        self.g = cell.g
        self.h = cell.h
        self.fake_residual = float(fake_residual)
        self.flat = bool(flat)
        self.target_holonomy = target_holonomy
        self.grid = int(grid)

    @property
    def target_defect(self):
        return float(np.linalg.norm(
            np.asarray(self.cell.target) - np.asarray(self.target_holonomy)))

    def __repr__(self):
        return (f"<SurfaceResult flat={self.flat} fake={self.fake_residual:.2e} "
                f"target_defect={self.target_defect:.2e}>")


def fake_residual_on_bigon(conn, bigon):
    """Max fake-curvature norm on the bigon's own tangent pairs, on a 9 x 9 grid."""
    grid = np.linspace(0.05, 0.95, 9)
    s, t = grid[:, None], grid[None, :]
    dim = bigon.dim
    points = bigon.value(s, t).reshape(-1, dim)
    u = bigon.d_s(s, t).reshape(-1, dim)
    v = bigon.d_t(s, t).reshape(-1, dim)
    return max_norm(conn.fake_curvature().at_points(points, u, v) if conn.is_symbolic
                    else conn.fake_curvature_at(points, u, v))


def _sweep_rows(conn, bigon, ts, grid):
    """b(t) and W(1, t) of the row at each height in ts (see module docstring)."""
    cm = conn.cm
    G, H = cm.G, cm.H
    n2 = 2 * grid
    hs = 1.0 / n2
    simpson_w = np.ones(n2 + 1)
    simpson_w[1:-1:2] = 4.0
    simpson_w[2:-1:2] = 2.0
    simpson_w *= hs / 3.0
    nodes = np.arange(n2 + 1) * hs
    mids = nodes[:-1] + hs / 2
    # s runs down the first axis and t along the second, so the samples of
    # step k form one contiguous stack over the block's rows
    s = (nodes if G.trivial else np.concatenate([nodes, mids]))[:, None]
    dim = bigon.dim
    # the fewest blocks under the cap, with their rows shared out evenly
    blocks = -(-len(ts) * len(s) // MAX_BLOCK_POINTS)
    per_block = -(-len(ts) // blocks)
    bs, W_ends = [], []
    for lo in range(0, len(ts), per_block):
        t = np.asarray(ts[lo:lo + per_block], dtype=float)[None, :]
        points = bigon.value(s, t)
        tangents = bigon.d_s(s, t)
        normals = bigon.d_t(s[:n2 + 1], t)
        # a row that repeats the one before it is swept once and copied out
        repeat = _repeated_rows(n2 // 3 or 1, points, tangents, normals)
        which = np.cumsum(~repeat) - 1
        if repeat.any():
            kept = _runs(~repeat)
            points, tangents, normals = (np.concatenate([a[:, i:j] for i, j in kept], axis=1)
                                         for a in (points, tangents, normals))
        rows = which[-1] + 1
        Bv = conn.B.at_points(points[:n2 + 1].reshape(-1, dim),
                              tangents[:n2 + 1].reshape(-1, dim), normals.reshape(-1, dim))
        if G.trivial:
            W_ends.append(np.broadcast_to(G.identity, (len(which),) + G.identity.shape))
        else:
            M = -conn.A.at_points(points.reshape(-1, dim), tangents.reshape(-1, dim))
            M = M.reshape((len(s), rows) + M.shape[1:])
            Ws = np.stack(np.broadcast_arrays(*_rk4(G, M[:n2 + 1], M[n2 + 1:], hs)))
            W_ends.append(Ws[-1][which])
            Ws = Ws.reshape((-1,) + Ws.shape[2:])
            Bv = cm.act_algebra(G.inv(Ws), Bv)
        Bv = Bv.reshape((n2 + 1, rows) + Bv.shape[1:])
        b = np.broadcast_to(H.algebra.zero(), (rows,) + Bv.shape[2:])
        for w, Bk in zip(simpson_w, Bv):
            b = b + w * Bk
        bs.extend(b[which])
    return bs, np.concatenate(W_ends)


def _repeated_rows(col, *samples):
    """Whether each row (axis 1) of the samples equals the row before it bit
    for bit (-0.0 is not 0.0) in every sample array. Rows are compared whole
    only where sample column `col` of the first array repeats, one run of
    such rows at a time."""
    views = [a.view(np.int64) for a in samples]
    first = views[0][col]
    repeat = np.zeros(first.shape[0], dtype=bool)
    repeat[1:] = (first[1:] == first[:-1]).all(axis=-1)
    for lo, hi in _runs(repeat):
        for v in views:
            repeat[lo:hi] &= (v[:, lo:hi] == v[:, lo - 1:hi - 1]).all(axis=0).all(axis=-1)
    return repeat


def _runs(mask):
    """(start, stop) of each run of True in a 1-D bool array."""
    edges = np.flatnonzero(np.diff(mask, prepend=False, append=False)).tolist()
    return list(zip(edges[::2], edges[1::2]))


def surface_holonomy(conn, bigon, grid=DEFAULT_GRID, fake_tol=TAU_FAKE):
    """Transport the 2-arrow group across a bigon; see module docstring."""
    cm = conn.cm
    G, H = cm.G, cm.H
    if H.kind != "matrix" or G.kind != "matrix":
        raise GeometryError("surface transport integrates matrix pairs only")
    if bigon.dim != conn.dim:
        raise GeometryError("bigon and connection live on different dimensions")
    if grid < 1:
        raise GeometryError(f"grid must be a positive integer, got {grid!r}")
    # k' = -k b(t) from k(0) = 1; rows at the RK4 nodes and midpoints, in
    # the order 0, then the midpoint and the end of each step
    ht = 1.0 / grid
    ts = [0.0]
    for j in range(grid):
        t = j * ht
        ts += [t + ht / 2, t + ht]
    # the last row swept t = 1.0 itself unless the steps ht rounded off
    if ts[-1] != 1.0:
        ts.append(1.0)
    bs, W_ends = _sweep_rows(conn, bigon, ts, grid)
    b_nodes = [-bs[0]] + [-b for b in bs[2:2 * grid + 1:2]]
    b_mids = [-b for b in bs[1:2 * grid:2]]
    k_el = _rk4(H, b_nodes, b_mids, ht, right=True)[-1]

    W_source, W_target = W_ends[0].copy(), W_ends[-1].copy()
    fake = fake_residual_on_bigon(conn, bigon)
    # k satisfies hol(target) = hol(source) t(k); conjugating by the source
    # holonomy converts to the cell convention hol(target) = t(h) hol(source),
    # under which transported cells paste by the 2-group's own rules
    h_el = cm.alpha(W_source, k_el)
    cell = TwoCell(cm, W_source, h_el)
    return SurfaceResult(cell, fake, fake <= fake_tol, W_target, grid)


def kernel_check(conn, points, tol=1e-8):
    """dt applied to the 3-curvature dB + dalpha(A)^B, sampled at points.

    For a fake-flat connection this image vanishes identically (the
    boundary of the 3-curvature is the derivative of the flatness relation).
    """
    cm = conn.cm
    rep = ValidationReport("3-curvature boundary image")
    if len(points) == 0:
        rep.skip("dt-of-3-curvature", NO_SAMPLES)
        return rep
    H3 = three_curvature(cm, conn.A, conn.B)
    M = cm.dt_matrix()
    image = H3.map_algebra(M, cm.G.algebra)
    worst = image.max_abs_on_grid(points)
    rep.add("dt-of-3-curvature", worst <= tol, residual=worst, tolerance=tol)
    return rep


def grids_errors(grids):
    """[] if an order can be fitted on `grids`, else the one problem with it."""
    ok = isinstance(grids, (list, tuple)) and all(is_integer(n) and n >= 2 for n in grids)
    return [] if ok and len(set(grids)) >= 2 else [
        f"grids must be a list of at least two distinct integers >= 2, got {grids!r}"]


def convergence_study(cm_or_group, A, path, grids=(8, 16, 32, 64)):
    """Transport error versus step count; the reference is 4x the finest grid."""
    problems = grids_errors(grids)
    if problems:
        raise ConfigError(problems)
    grids = sorted(int(g) for g in grids)
    ref = path_holonomy(cm_or_group, A, path, steps=grids[-1] * 4)
    errors = []
    for n in grids:
        W = path_holonomy(cm_or_group, A, path, steps=n)
        errors.append(float(np.linalg.norm(np.asarray(W) - np.asarray(ref))))
    floor = 1e-14
    logs = [(np.log(1.0 / n), np.log(max(e, floor))) for n, e in zip(grids, errors)]
    xs, ys = zip(*logs)
    order = float(np.polyfit(xs, ys, 1)[0])
    return {"grids": list(grids), "errors": errors, "order": order}


# ------------------------------------------------------- gauge and transitions

def transform_connection(cm, conn, gmap, a_form):
    """Chart change: A' = g A g^-1 + g d(g^-1) - dt(a); B' = act(g) B + k.

    The overlap curvature k is built against the transformed A', matching
    how the two charts are compared in `check_transition_laws`. A' and B'
    are StackedForms: g, g^-1 and dg come from gmap's stacked methods, so an
    ExpParamMap computes them once per point stack and direction for every
    form built on it (see `maps`).
    """
    if a_form.degree != 1:
        raise GeometryError("the shift form has degree 1")
    if not isinstance(a_form, FormField):
        raise GeometryError("the shift form must be symbolic")
    mc = maurer_cartan(gmap)

    def A_fn(p, v):
        return (gmap.at_points(p) @ conn.A.at_points(p, v) @ gmap.inv_points(p)
                + mc.at_points(p, v) - cm.dt(a_form.at_points(p, v)))

    A_new = StackedForm(cm.G.algebra, 1, conn.dim, A_fn)
    k_free = a_form.d() + square_wedge(a_form)
    k_act = action_wedge_pointwise(cm, A_new, a_form)

    def B_fn(p, u, v):
        return cm.act_algebra(gmap.at_points(p), conn.B.at_points(p, u, v)) \
            + (k_free.at_points(p, u, v) + k_act.at_points(p, u, v))

    B_new = StackedForm(cm.H.algebra, 2, conn.dim, B_fn)
    return LocalConnection(cm, A_new, B_new)


def check_transition_laws(cm, left, right, gmap, a_form, points, tol=1e-9):
    """Are two charts related by (g, a)? Residuals of both gauge laws.

    left plays chart i, right chart j: the laws compare left against the
    (g, a)-transform of right, sampled at `points` on coordinate directions.
    """
    transformed = transform_connection(cm, right, gmap, a_form)
    rep = ValidationReport("transition laws")
    if len(points) == 0:
        rep.skip("connection-law", NO_SAMPLES)
        rep.skip("surface-law", NO_SAMPLES)
        return rep
    worst1, ok1 = forms_close(left.A, transformed.A, points, tol)
    rep.add("connection-law", ok1, residual=worst1, tolerance=tol)
    worst2, ok2 = forms_close(left.B, transformed.B, points, tol)
    rep.add("surface-law", ok2, residual=worst2, tolerance=tol)
    return rep


def check_transition_laws_plain(cm, left, right, gmap, points, tol=1e-9):
    """1-bundle specialization: zero shift form, so B' is just the pushforward."""
    zero_a = FormField.zero(cm.H.algebra, 1, left.dim)
    return check_transition_laws(cm, left, right, gmap, zero_a, points, tol)


def check_triple_overlap(cm, a_ij, a_jk, a_ik, g_ij, hmap, A_i, points, tol=1e-9):
    """Cocycle law for the shift forms on a triple overlap.

    a_ij + act(g_ij) a_jk  =  h a_ik h^-1 + (dh) h^-1 + D(A_i)(h)

    where h is the overlap 2-transition map and D(y)(h) is the derivative
    of the action in the group direction, d/de alpha(exp(e y))(h) h^-1.
    Both sides are StackedForms, compared by `forms_close` at `points` on
    coordinate directions, so each map computes its values once per point
    stack (see `maps`).
    """
    rep = ValidationReport("triple overlap law")
    if len(points) == 0:
        rep.skip("shift-cocycle", NO_SAMPLES)
        return rep
    rldh = right_log_derivative(hmap)

    def lhs_fn(p, v):
        return a_ij.at_points(p, v) + cm.act_algebra(g_ij.at_points(p), a_jk.at_points(p, v))

    def rhs_fn(p, v):
        h = hmap.at_points(p)
        return (h @ a_ik.at_points(p, v) @ hmap.inv_points(p) + rldh.at_points(p, v)
                + cm.dalpha_group(A_i.at_points(p, v), h))

    lhs = StackedForm(cm.H.algebra, 1, a_ij.dim, lhs_fn)
    rhs = StackedForm(cm.H.algebra, 1, a_ij.dim, rhs_fn)
    worst, ok = forms_close(lhs, rhs, points, tol)
    rep.add("shift-cocycle", ok, residual=worst, tolerance=tol)
    return rep
