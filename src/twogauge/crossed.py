"""Crossed modules: boundary map, action, differential data, validators, catalog.

A crossed module is a pair of groups (G, H) with a homomorphism t: H -> G and
an action alpha of G on H by automorphisms, subject to

    equivariance:  t(alpha(g)(h)) = g t(h) g^-1
    Peiffer:       alpha(t(h))(h') = h h' h^-1

A finite pair, shipped or inline, is its integer tables t (|H|) and alpha
(|G| x |H|), checked once by `CompiledModule`; the checks and census read them.

The differential layer (for matrix pairs) carries dt: h -> g, the bilinear
dalpha: g x h -> h, the linearized action of group elements on the algebra,
and the group-direction derivative d/de alpha(exp(e y))(h) h^-1 used in the
triple-overlap transition law.

Shipped catalog (spec identifiers accepted by `crossed_module`):

    CONJ(SU2), CONJ(S3), CONJ(U1)   adjoint pairs (G, G, id, conjugation)
    AUT(SU2)                        (SO(3), SU(2), covering map, lifted conjugation)
    AUT(S3), AUT(Z<n>)              automorphism 2-groups of finite groups
    GERBE(U1), GERBE(Z<n>)          abelian pairs with trivial G and t
                                    (1 <= n <= MAX_CYCLIC_ORDER for Z<n>)
    FLIP(Z3)                        Z/2 acting on Z/3 by negation, t trivial
    PEIFFER_BROKEN(S3)              invalid fixture: trivial t and action on S3
"""

import itertools
import re

import numpy as np

from .errors import GroupDomainError
from .groups import (
    SO3, SU2, TRIVIAL, U1, FiniteGroup,
    automorphism_group, frobenius_norms, random_algebra_stacks, random_stacks,
    _index_array, _SIGMA,
)
from .report import NO_SAMPLES, ValidationReport

EXHAUSTIVE_VALIDATE_BUDGET = 10 ** 6
EXHAUSTIVE_INTERCHANGE_BUDGET = 10 ** 8
# GERBE(Z<n>) and AUT(Z<n>) build an n x n Cayley table and check it one row
# of the n^3 associativity cube at a time; at n = 100 GERBE builds in about
# 10 ms and AUT, tables included, in 21-32 ms (medians of 7 on one
# 2-CPU machine, Python 3.11, numpy 2.4). A larger n is refused
MAX_CYCLIC_ORDER = 100
# cases per block of a batched check over compiled tables: bounds its memory
BLOCK = 8192
# differential_consistency: the largest residual / eps^2 that passes
FIRST_ORDER_BOUND = 10.0


class CrossedModule:
    def __init__(self, name, G, H, t, alpha, *, dt=None, dalpha=None,
                 act_algebra=None, dalpha_group=None):
        self.name = name
        self.G = G
        self.H = H
        self._compiled = None
        if self.is_finite:  # t and alpha are tables: the accessors read Python ints
            self._compiled = CompiledModule(name, G, H, t, alpha)
            t = lambda h: self._compiled.t_table.item(H._check(h))
            alpha = lambda g, h: self._compiled.alpha_table.item(G._check(g), H._check(h))
        self._t = t
        self._alpha = alpha
        self._dt = dt
        self._dalpha = dalpha
        self._act_algebra = act_algebra
        self._dalpha_group = dalpha_group

    def t(self, h):
        return self._t(h)

    def alpha(self, g, h):
        return self._alpha(g, h)

    @property
    def is_finite(self):
        return self.G.kind == "finite" and self.H.kind == "finite"

    def compiled(self):
        """The module's index tables (finite pairs only)."""
        if not self.is_finite:
            raise GroupDomainError(f"{self.name} is not a finite crossed module")
        return self._compiled

    @property
    def has_differential(self):
        return self._dt is not None

    def dt(self, x):
        """The boundary map on the algebras; like `dalpha` and `act_algebra`
        it also takes (N, n, n) stacks, with the bits of the single call."""
        if self._dt is None:
            raise GroupDomainError(f"{self.name} has no differential data")
        return self._dt(x)

    def dt_matrix(self):
        """Matrix of dt in the shipped bases (g-coords per h-basis column)."""
        hdim = self.H.algebra.dim
        gdim = self.G.algebra.dim
        M = np.zeros((gdim, hdim))
        for b in range(hdim):
            M[:, b] = self.G.algebra.coords(self.dt(self.H.algebra.basis[b]))
        return M

    def dalpha(self, y, x):
        if self._dalpha is None:
            raise GroupDomainError(f"{self.name} has no differential data")
        return self._dalpha(y, x)

    def dalpha_matrix(self):
        """D[a, b, c] with dalpha(e_b^g)(e_c^h) = sum_a D[a,b,c] e_a^h."""
        gdim = self.G.algebra.dim
        hdim = self.H.algebra.dim
        D = np.zeros((hdim, gdim, hdim))
        for b in range(gdim):
            for c in range(hdim):
                D[:, b, c] = self.H.algebra.coords(
                    self.dalpha(self.G.algebra.basis[b], self.H.algebra.basis[c]))
        return D

    def act_algebra(self, g, x):
        """Linearization of alpha(g) on the H algebra.

        g and x may also be (N, n, n) stacks, acted on pairwise; every
        shipped matrix module gives each pair the bits of the single call.
        """
        if self._act_algebra is None:
            raise GroupDomainError(f"{self.name} has no differential data")
        return self._act_algebra(g, x)

    def dalpha_group(self, y, h):
        """d/de alpha(exp(e y))(h) h^-1 at e = 0, an H-algebra value.

        On every shipped matrix module y and h may also be (N, n, n) stacks,
        taken pairwise with the bits of the single call."""
        if self._dalpha_group is not None:
            return self._dalpha_group(y, h)
        if self._dalpha is None:
            raise GroupDomainError(f"{self.name} has no differential data")
        # central-difference fallback through the group-level action
        eps = 1e-6
        gp = self.G.exp(eps * y)
        gm = self.G.exp(-eps * y)
        d = (self.alpha(gp, h) - self.alpha(gm, h)) / (2 * eps)
        return self.H.algebra.project(d @ self.H.inv(h))

    def __repr__(self):
        return f"<CrossedModule {self.name}>"


class TableGroup:
    """A finite group's Cayley table, applied to whole index arrays at once.

    `mul`, `inv` and `conj` take ints or integer arrays that broadcast
    together and return the elementwise results, without membership checks:
    every index that reaches them comes from the compiled tables.
    `table`, `inverse` and `generators` are the group's own arrays and
    least-first generating set (`FiniteGroup.generators`).
    """

    def __init__(self, group):
        self.order = group.order
        self.identity = group.identity
        self.table = group.table
        self.inverse = group._inv
        self.generators = group.generators
        self._group = group
        self._flat = self.table.ravel()

    def mul(self, a, b):
        # one flat gather is about twice as fast as indexing by two arrays
        return self._flat[a * self.order + b]

    def inv(self, a):
        return self.inverse[a]

    def conj(self, g, h):
        return self.mul(self.mul(g, h), self.inv(g))

    eq = staticmethod(np.equal)

    def label(self, a):
        return self._group.label(int(a))


class CompiledModule:
    """A finite crossed module as index tables: the engine behind batched checks.

    Holds the Cayley tables and inverse arrays of G and H (as TableGroup),
    t as a length-|H| array and alpha as a |G| x |H| table. `t` and `alpha`
    act elementwise on index arrays, so 2-cell diagrams written against a
    CrossedModule evaluate over many cases at once when handed this object.
    Its constructor is the one check of a finite module's tables: integer
    entries, the shapes, t entries in G and alpha entries in H.
    `axiom_failures` holds the names of the axioms the tables fail, set by
    the first census of the module (`cech.classify_finite`) and None before.
    """

    def __init__(self, name, G, H, t, alpha):
        t = _index_array(t, "t")
        alpha = _index_array(alpha, "alpha")
        if t.shape != (H.order,) or alpha.shape != (G.order, H.order):
            raise GroupDomainError("inline crossed module tables have wrong shape")
        for key, values, group in (("t", t, G), ("alpha", alpha, H)):
            outside = values[(values < 0) | (values >= group.order)]
            if outside.size:
                raise GroupDomainError(f"{key} entry {outside[0]} is not an element of "
                                       f"{group.name} (order {group.order})")
        self.name = name
        self.G = TableGroup(G)
        self.H = TableGroup(H)
        self.t_table = t
        self.alpha_table = alpha
        self._alpha_flat = alpha.ravel()
        self.axiom_failures = None

    def t(self, h):
        return self.t_table[h]

    def alpha(self, g, h):
        return self._alpha_flat[g * self.H.order + h]

    def __repr__(self):
        return f"<CompiledModule {self.name}>"


# ------------------------------------------------------------------ validators

def _blocks(total):
    """Consecutive index ranges of at most BLOCK cases covering range(total)."""
    for start in range(0, total, BLOCK):
        yield np.arange(start, min(start + BLOCK, total))


def _index_blocks(shape):
    """Every index tuple of `shape`, in tuple-loop order, as blocks of index arrays."""
    for cases in _blocks(int(np.prod(shape))):
        yield np.unravel_index(cases, shape)


def _random_blocks(groups, rng, samples):
    """`samples` random tuples of `groups` in blocks of at most BLOCK, each
    block a tuple of stacks: the draws and bits of a tuple loop (see
    `groups.random_stacks`)."""
    for cases in _blocks(samples):
        yield random_stacks(groups, rng, len(cases))


def _failures(holds, blocks):
    """How many cases fail `holds` (a bool per case, or one for all), and the
    first one's arguments; `blocks` yields arrays with a leading case axis."""
    bad, first = 0, None
    for args in blocks:
        fails = np.flatnonzero(~np.broadcast_to(holds(*args), len(args[0])))
        if fails.size and first is None:
            first = [a[fails[0]] for a in args]
        bad += fails.size
    return bad, first


def _witness(G, H, names, values):
    """Labels of a case's arguments by name: g-names from G, h-names from H."""
    return {n: (G if n[0] == "g" else H).label(v) for n, v in zip(names.split(), values)}


def validate_crossed_module(cm, mode="auto", samples=60, seed=42):
    """Axiom check: homomorphism, action, equivariance, Peiffer.

    mode 'exhaustive' walks every tuple (finite pairs only, budget
    |G| * |H|^2 <= 10^6) on the compiled tables (`cm.compiled()`); 'sampled'
    draws `samples` random tuples as stacks; 'auto' picks exhaustive when available
    within budget. Each axiom's predicate runs once per block of cases, in
    case order, so its count and first witness are those of a tuple loop.
    """
    rep = ValidationReport(f"crossed module axioms: {cm.name}")
    exhaustive = cm.is_finite and cm.G.order * cm.H.order ** 2 <= EXHAUSTIVE_VALIDATE_BUDGET
    if mode == "exhaustive" and not exhaustive:
        raise GroupDomainError("exhaustive validation not available for this pair")
    if mode == "sampled":
        exhaustive = False

    mod = cm.compiled() if cm.is_finite else cm
    G, H = mod.G, mod.H
    if exhaustive:
        n_g, n_h = G.order, H.order
        pairs_hh, singles, pairs_gh = (n_h, n_h), (n_h,), (n_g, n_h)
        triples, gg_h = (n_g, n_h, n_h), (n_g, n_g, n_h)
        blocks = _index_blocks
    else:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        pairs_hh, pairs_gh, triples, gg_h = (
            list(_random_blocks(groups, rng, samples))
            for groups in ((cm.H, cm.H), (cm.G, cm.H), (cm.G, cm.H, cm.H), (cm.G, cm.G, cm.H)))
        singles = [(h1,) for h1, _ in pairs_hh]
        blocks = iter

    def run(name, cases, names, predicate):
        if not cases:
            rep.skip(name, NO_SAMPLES)
            return
        bad, first = _failures(predicate, blocks(cases))
        rep.add(name, not bad, witness=_witness(G, H, names, first) if bad else None,
                detail=f"{bad} violations" if bad else None)

    run("t-homomorphism", pairs_hh, "h1 h2",
        lambda h1, h2: G.eq(mod.t(H.mul(h1, h2)), G.mul(mod.t(h1), mod.t(h2))))
    run("alpha-identity", singles, "h",
        lambda h: H.eq(mod.alpha(G.identity, h), h))
    run("alpha-automorphism", triples, "g h1 h2",
        lambda g, h1, h2: H.eq(mod.alpha(g, H.mul(h1, h2)),
                               H.mul(mod.alpha(g, h1), mod.alpha(g, h2))))
    run("alpha-action", gg_h, "g1 g2 h",
        lambda g1, g2, h: H.eq(mod.alpha(G.mul(g1, g2), h),
                               mod.alpha(g1, mod.alpha(g2, h))))
    run("equivariance", pairs_gh, "g h",
        lambda g, h: G.eq(mod.t(mod.alpha(g, h)), G.conj(g, mod.t(h))))
    run("peiffer", pairs_hh, "h1 h2",
        lambda h1, h2: H.eq(mod.alpha(mod.t(h1), h2), H.conj(h1, h2)))
    return rep


def differential_consistency(cm, samples=20, eps=1e-3, seed=42):
    """First-order agreement of (t, alpha) with (dt, dalpha).

    For x in the H algebra: || t(exp(eps x)) - exp(eps dt(x)) || = O(eps^2).
    For y in the G algebra and h = exp(x): since alpha(g) is an automorphism,
    log(alpha(exp(eps y))(h)) = x + eps dalpha(y)(x) + O(eps^2).
    Reports max residual / eps^2 against FIRST_ORDER_BOUND. The samples are
    drawn and checked as stacks, with the bits of a per-sample loop.
    """
    if not cm.has_differential:
        raise GroupDomainError(f"{cm.name} has no differential data")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    rep = ValidationReport(f"differential consistency: {cm.name}")
    if samples < 1:
        rep.skip("dt-first-order", NO_SAMPLES)
        rep.skip("dalpha-first-order", NO_SAMPLES)
        return rep
    G, H = cm.G, cm.H
    x, y = random_algebra_stacks([H.algebra, G.algebra], rng, samples, 0.5)
    r_t = frobenius_norms(cm.t(H.exp(eps * x)) - G.exp(eps * cm.dt(x)))
    h = H.exp(x)
    lhs = H.log(cm.alpha(G.exp(eps * y), h))
    r_a = frobenius_norms(lhs - (x + eps * cm.dalpha(y, x)))
    # a NaN residual never wins, as in a loop of max(worst, r) from 0.0
    worst_t = float(np.fmax.reduce(r_t / eps ** 2, initial=0.0))
    worst_a = float(np.fmax.reduce(r_a / eps ** 2, initial=0.0))
    rep.add("dt-first-order", worst_t <= FIRST_ORDER_BOUND, residual=worst_t,
            tolerance=FIRST_ORDER_BOUND)
    rep.add("dalpha-first-order", worst_a <= FIRST_ORDER_BOUND, residual=worst_a,
            tolerance=FIRST_ORDER_BOUND)
    return rep


# -------------------------------------------------------------------- catalog

def _conj_matrix_module(name, group_factory):
    M = group_factory()
    return CrossedModule(
        name, M, group_factory(),
        t=lambda h: h,
        alpha=lambda g, h: M.conj(g, h),
        dt=lambda x: x,
        dalpha=lambda y, x: y @ x - x @ y,
        # both CONJ groups are unitary: g^-1 is the conjugate transpose, the
        # matrix M.inv returns, without checking g again after its caller
        act_algebra=lambda g, x: g @ x @ g.conj().swapaxes(-1, -2),
        dalpha_group=lambda y, h: M.algebra.project(y - h @ y @ M.inv(h)),
    )


def _su2_from_quaternion(q):
    if np.ndim(q) == 2:  # a stack of quaternions
        x, y, z, w = (q[:, i, None, None] for i in range(4))
    else:
        x, y, z, w = q
    return w * np.eye(2, dtype=complex) - 1j * (x * _SIGMA[0] + y * _SIGMA[1] + z * _SIGMA[2])


def _covering_su2_to_so3(u):
    """The rotation of u, or of each matrix of an (N, 2, 2) stack."""
    uh = u.conj().swapaxes(-1, -2)
    R = np.empty(u.shape[:-2] + (3, 3))
    for i, j in itertools.product(range(3), range(3)):
        R[..., i, j] = 0.5 * np.real(np.trace(_SIGMA[i] @ u @ _SIGMA[j] @ uh, 0, -2, -1))
    return R


def _aut_su2_module():
    G = SO3()
    H = SU2()

    def lift(R):
        # either preimage works: alpha conjugates, so the sign cancels
        from scipy.spatial.transform import Rotation  # loaded on first use
        q = Rotation.from_matrix(np.asarray(R, dtype=float)).as_quat()
        return _su2_from_quaternion(q)

    # dt and dt_inv also take (N, n, n) stacks, matrix by matrix
    def dt(x):
        a = np.array([1j * np.trace(s @ x, 0, -2, -1) for s in _SIGMA]).real
        z = np.zeros_like(a[0])
        R = np.array([[z, -a[2], a[1]], [a[2], z, -a[0]], [-a[1], a[0], z]])
        return np.moveaxis(R, (0, 1), (-2, -1))

    def dt_inv(y):
        a = [y[..., i, j, None, None] for i, j in ((2, 1), (0, 2), (1, 0))]
        return -0.5j * (a[0] * _SIGMA[0] + a[1] * _SIGMA[1] + a[2] * _SIGMA[2])

    def act(g, x):
        # alpha on H and its linearization on the algebra: conjugation by a lift
        u = lift(g)
        return u @ x @ u.conj().swapaxes(-1, -2)

    return CrossedModule(
        "AUT(SU2)", G, H,
        t=_covering_su2_to_so3,
        alpha=act,
        dt=dt,
        dalpha=lambda y, x: (lambda yh: yh @ x - x @ yh)(dt_inv(y)),
        act_algebra=act,
        dalpha_group=lambda y, h: (lambda yh: H.algebra.project(
            yh - h @ yh @ h.conj().swapaxes(-1, -2)))(dt_inv(y)),
    )


def _gerbe_matrix_module():
    G = TRIVIAL()
    H = U1()
    return CrossedModule(
        "GERBE(U1)", G, H,
        t=lambda h: G.identity,
        alpha=lambda g, h: h,
        dt=lambda x: np.zeros(np.shape(x)),
        dalpha=lambda y, x: np.zeros(np.shape(x), dtype=complex),
        act_algebra=lambda g, x: x,
        dalpha_group=lambda y, h: np.zeros(np.shape(h), dtype=complex),
    )


def _finite_conj_module(name, group_factory):
    G = group_factory()
    return CrossedModule(name, G, group_factory(), t=np.arange(G.order),
                         alpha=G.conjugation_table())


def _aut_finite_module(name, base):
    aut, images = automorphism_group(base)
    return CrossedModule(name, aut, base, t=aut.inner, alpha=images)


def _gerbe_finite_module(n):
    return CrossedModule(f"GERBE(Z{n})", FiniteGroup.trivial(), FiniteGroup.cyclic(n),
                         t=np.zeros(n, dtype=np.intp), alpha=np.arange(n)[None, :])


def _flip_module():
    return CrossedModule("FLIP(Z3)", FiniteGroup.cyclic(2), FiniteGroup.cyclic(3),
                         t=[0, 0, 0], alpha=[[0, 1, 2], [0, 2, 1]])


def peiffer_violating_fixture():
    """Invalid on purpose: trivial t and trivial action on a nonabelian H."""
    return CrossedModule("PEIFFER_BROKEN(S3)", FiniteGroup.trivial(), FiniteGroup.symmetric(3),
                         t=np.zeros(6, dtype=np.intp), alpha=np.arange(6)[None, :])


_CATALOG = {
    "CONJ(SU2)": lambda: _conj_matrix_module("CONJ(SU2)", SU2),
    "CONJ(U1)": lambda: _conj_matrix_module("CONJ(U1)", U1),
    "CONJ(S3)": lambda: _finite_conj_module("CONJ(S3)", lambda: FiniteGroup.symmetric(3)),
    "AUT(SU2)": _aut_su2_module,
    "AUT(S3)": lambda: _aut_finite_module("AUT(S3)", FiniteGroup.symmetric(3)),
    "GERBE(U1)": _gerbe_matrix_module,
    "FLIP(Z3)": _flip_module,
    "PEIFFER_BROKEN(S3)": peiffer_violating_fixture,
}


def crossed_module(name):
    """Look up a shipped crossed module by identifier (see module docstring)."""
    key = name.strip()
    if key in _CATALOG:
        return _CATALOG[key]()
    m = re.fullmatch(r"GERBE\(Z(\d+)\)", key)
    if m:
        return _gerbe_finite_module(_cyclic_order(key, m.group(1)))
    m = re.fullmatch(r"AUT\(Z(\d+)\)", key)
    if m:
        n = _cyclic_order(key, m.group(1))
        return _aut_finite_module(f"AUT(Z{n})", FiniteGroup.cyclic(n))
    raise GroupDomainError(f"unknown crossed module {name!r}; shipped: "
                           + ", ".join(sorted(_CATALOG) + ["GERBE(Z<n>)", "AUT(Z<n>)"]))


def _cyclic_order(key, digits):
    """The n of Z<n>, checked against MAX_CYCLIC_ORDER before any table exists."""
    significant = digits.lstrip("0")
    if len(significant) > len(str(MAX_CYCLIC_ORDER)) \
            or not 1 <= int(significant or "0") <= MAX_CYCLIC_ORDER:
        raise GroupDomainError(f"{key}: the cyclic order must lie between 1 and "
                               f"{MAX_CYCLIC_ORDER}")
    return int(significant)


def shipped_finite_names():
    """Finite catalog entries (every one validates exhaustively)."""
    return ["CONJ(S3)", "AUT(S3)", "AUT(Z5)", "FLIP(Z3)",
            "GERBE(Z2)", "GERBE(Z3)", "GERBE(Z5)"]


def shipped_matrix_names():
    return ["CONJ(U1)", "CONJ(SU2)", "AUT(SU2)", "GERBE(U1)"]


def from_tables(cfg):
    """Inline finite crossed module from explicit tables.

    cfg keys: name?, G {table, names?, name?}, H {table, names?, name?},
    t (list: G-index per H element), alpha (|G| x |H| table of H-indices).
    Keys and names are checked here, the group tables by FiniteGroup, and t
    and alpha by `CompiledModule`: a refusal names the key at fault.
    """
    _check_keys("inline crossed module", cfg, ("name", "G", "H", "t", "alpha"))
    missing = [key for key in ("G", "H", "t", "alpha") if key not in cfg]
    if missing:
        raise GroupDomainError(f"inline crossed module needs {', '.join(missing)}")
    G, H = (_inline_group(key, cfg[key]) for key in ("G", "H"))
    return CrossedModule(cfg.get("name", "inline"), G, H, t=cfg["t"], alpha=cfg["alpha"])


def _check_keys(what, spec, known):
    """Refuse a key of `spec` outside `known` and a `name` that is not a string."""
    unknown = [key for key in spec if key not in known]
    if unknown:
        raise GroupDomainError(f"{what} has unknown key {unknown[0]!r}")
    if not isinstance(spec.get("name", ""), str):
        raise GroupDomainError(f"{what} name must be a string, got {spec['name']!r}")


def _inline_group(key, spec):
    """The finite group of an inline module's G or H entry."""
    if not isinstance(spec, dict) or "table" not in spec:
        raise GroupDomainError(f"{key} must be an object with a table, got {spec!r}")
    _check_keys(key, spec, ("table", "names", "name"))
    names = spec.get("names")
    if names is not None and not (isinstance(names, list)
                                  and all(isinstance(n, str) for n in names)):
        raise GroupDomainError(f"{key} names must be a list of strings, got {names!r}")
    return FiniteGroup(spec["table"], names=names, name=spec.get("name", key))
