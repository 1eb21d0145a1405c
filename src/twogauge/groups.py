"""Concrete groups: finite multiplication tables and matrix families.

Finite groups live on index sets {0..n-1} with a Cayley table validated on
construction (associativity, identity, inverses), and derive their
least-first generating set there. `automorphisms` finds every automorphism
from the images of those generators. Matrix groups are the
connected compact families U1, SU2, SO3 and the one-element TRIVIAL group,
each given by its Lie algebra with a fixed, documented basis:

    u(1):  e1 = [[1j]]
    su(2): ek = -i/2 * sigma_k            (k = 1, 2, 3)
    so(3): Lk with (Lk) v = e_k x v       (cross-product generators)

exp is scaling-and-squaring Pade (scipy expm, one call per matrix or stack;
np.exp on 1x1 matrices, as in scipy); log eigen-checks the argument and
refuses cut-locus points with the offending eigenvalue in the error, then
takes scipy logm per matrix (np.log on complex 1x1 matrices, as in scipy).
Both import scipy when first needed, so a process that never takes an exp
or a log of a matrix larger than 1x1 never loads it.
Group products renormalize by polar projection when the membership drift
exceeds TAU_GRP / 10, and operands are refused when it is not within 1e-6.
Both tests read only a decision, which `MatrixGroup._defect_against` makes
without the exact `defect` where it can: a cheap value, summed in Python
arithmetic (elementwise numpy for a stack), decides outside a relative band
of 1e-3 around the bound, and the exact `defect` decides inside it and
wherever the cheap value is not finite. Near either bound the two values
differ by a few ulps, about 1e-15, a hundredth of the band's 1e-13 at
1e-10, so every decision and every output bit is the exact defect's.
`defect`, `renormalize`, `project`, `inv`, `exp` and `log` also take a
stack of matrices along a leading axis; each matrix gets the same bits and
the same decisions as it would alone. `random_stacks` draws many random
tuples of elements as one stack per group, with the draws and bits of the
tuple loop over `random`.
"""

import itertools
import math

import numpy as np

from .errors import GroupDomainError, LogRangeError

TAU_GRP = 1e-9

# the exact defect decides a membership test wherever the cheap value lies
# within this relative distance of the bound (MatrixGroup._defect_against)
_BAND = 1e-3

_SIGMA = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


# ---------------------------------------------------------------- finite side

def is_integer(value):
    """Whether a value is a Python or numpy integer; true and false are not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _index_array(values, what):
    """`values` as an integer array, refusing what np.asarray(values, dtype=int)
    would coerce: booleans, non-integers and rows of unequal length."""
    values = np.asarray(values, dtype=object)
    bad = [v for v in values.flat if not (is_integer(v) and abs(v) < 2 ** 62)]
    if bad:
        raise GroupDomainError(f"{what} entries must be integer indices, got {bad[0]!r}")
    return values.astype(np.intp)


def _composition_table(maps):
    """Cayley table of index tuples under composition, (p q)[x] = p[q[x]]:
    every pair composed in one gather, each product found by one dict lookup."""
    index = {p: i for i, p in enumerate(maps)}
    images = np.array(maps, dtype=np.intp)
    return np.array([[index[tuple(pq)] for pq in row] for row in images[:, images].tolist()])


def _cycle_notation(p):
    seen = [False] * len(p)
    parts = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        parts.append("(" + "".join(str(k + 1) for k in cyc) + ")")
    return "".join(parts) if parts else "e"


class FiniteGroup:
    """Group on {0..n-1} given by an n x n multiplication table.

    `generators` is the least-first generating set, derived once at
    construction: each element, in increasing index order, that the earlier
    ones do not generate. `automorphisms` and the census moves read it.
    """

    kind = "finite"

    def __init__(self, table, names=None, name="finite"):
        table = _index_array(table, "multiplication table")
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise GroupDomainError("multiplication table must be square")
        n = table.shape[0]
        if n == 0 or table.min() < 0 or table.max() >= n:
            raise GroupDomainError("table entries must index the element set")
        elements = np.arange(n)
        ident = np.flatnonzero((table == elements).all(1) & (table.T == elements).all(1))
        if not ident.size:
            raise GroupDomainError("table has no identity element")
        ident = int(ident[0])
        for a in range(n):  # a row of the n^3 cube at a time: (ab)c against a(bc)
            bad = np.argwhere(table[table[a]] != table[a][table])
            if bad.size:
                raise GroupDomainError("table not associative at ({},{},{})".format(a, *bad[0]))
        is_ident = table == ident
        inv = is_ident.argmax(axis=1)
        bad = np.flatnonzero((is_ident.sum(axis=1) != 1) | (table[inv, elements] != ident))
        if bad.size:
            raise GroupDomainError(f"element {bad[0]} has no two-sided inverse")
        self.table = table
        self.order = n
        self.identity = ident
        self._inv = inv
        self.name = name
        self.names = [str(i) for i in range(n)] if names is None else list(names)
        if len(self.names) != n:
            raise GroupDomainError(f"{name} has {len(self.names)} names for {n} elements")
        self.generators = self._least_generators()

    def _least_generators(self):
        table = self.table.tolist()
        gens, span = [], {self.identity}
        for a in range(self.order):
            if a in span:
                continue
            gens.append(a)
            # close under right multiplication by the generators: in a
            # finite group that is the generated subgroup
            frontier = span
            while frontier:
                frontier = {table[x][g] for x in frontier for g in gens} - span
                span |= frontier
        return gens

    def elements(self):
        return range(self.order)

    def contains(self, a):
        """Whether `a` is an element index; a bool is not one."""
        if type(a) is int:  # the common case, ahead of is_integer's isinstance tests
            return 0 <= a < self.order
        return is_integer(a) and 0 <= int(a) < self.order

    def _check(self, a):
        if type(a) is int and 0 <= a < self.order:
            return a
        if not self.contains(a):
            raise GroupDomainError(f"{a!r} is not an element of {self.name}")
        return int(a)

    def mul(self, a, b):
        return int(self.table[self._check(a), self._check(b)])

    def inv(self, a):
        return int(self._inv[self._check(a)])

    def conj(self, g, h):
        return self.mul(self.mul(g, h), self.inv(g))

    def conjugation_table(self):
        """c[g, h] = g h g^-1 for every pair, as an |G| x |G| array."""
        return self.table[self.table, self._inv[:, None]]

    def eq(self, a, b, tol=None):
        return self._check(a) == self._check(b)

    def renormalize(self, a):
        return self._check(a)

    def random(self, rng):
        return int(rng.integers(self.order))

    def label(self, a):
        return self.names[self._check(a)]

    def __repr__(self):
        return f"<FiniteGroup {self.name} order={self.order}>"

    @classmethod
    def trivial(cls):
        return cls([[0]], names=["e"], name="1")

    @classmethod
    def cyclic(cls, n):
        table = [[(a + b) % n for b in range(n)] for a in range(n)]
        return cls(table, names=[str(a) for a in range(n)], name=f"Z{n}")

    @classmethod
    def symmetric(cls, n):
        perms = sorted(itertools.permutations(range(n)))
        g = cls(_composition_table(perms), names=[_cycle_notation(p) for p in perms],
                name=f"S{n}")
        g.perms = perms
        return g


def automorphisms(group):
    """All automorphisms of a finite group, as sorted tuples of images phi[a].

    An automorphism is fixed by its images of a generating set: every element
    is reached from the identity as x * g with x reached before and g a
    generator, and phi(x * g) = phi(x) * phi(g). So each tuple of generator
    images, each of the order of its generator, extends to one candidate
    along a breadth-first tree; a candidate is kept when it is a bijection
    that respects the whole table.
    """
    table, n, gens = group.table, group.order, group.generators
    rows = table.tolist()
    reached, tree = [group.identity], []  # tree: (x * g, x, index of g)
    for x in reached:
        for k, g in enumerate(gens):
            y = rows[x][g]
            if y not in reached:
                reached.append(y)
                tree.append((y, x, k))
    elements = np.arange(n)
    orders, power = np.zeros(n, dtype=np.intp), elements
    for k in range(1, n + 1):  # power = a^k for every a
        orders[(power == group.identity) & (orders == 0)] = k
        power = table[power, elements]
    images = np.array(list(itertools.product(
        *(np.flatnonzero(orders == orders[g]) for g in gens))), dtype=np.intp)
    phi = np.empty((len(images), n), dtype=np.intp)  # one candidate per row
    phi[:, group.identity] = group.identity
    for y, x, k in tree:
        phi[:, y] = table[phi[:, x], images[:, k]]
    phi = phi[(np.sort(phi, axis=1) == elements).all(axis=1)]  # the bijections
    return sorted(tuple(p.tolist()) for p in phi if (p[table] == table[np.ix_(p, p)]).all())


def automorphism_group(group):
    """The automorphism group of a finite group, plus the list of image tuples:
    element i is the i-th of `automorphisms(group)`, and (p q)[x] = p[q[x]].
    `aut.inner[h]` is the element of conjugation by h, x -> h x h^-1."""
    autos = automorphisms(group)
    index = {p: i for i, p in enumerate(autos)}
    inner = [index[row] for row in map(tuple, group.conjugation_table().tolist())]
    if group.name.startswith("Z"):
        names = [f"x->{p[1] if group.order > 1 else 0}x" for p in autos]
    else:  # the first element whose conjugation it is, else a number
        names = [f"auto{i}" for i in range(len(autos))]
        for h in reversed(range(group.order)):  # so the first such h is written last
            names[inner[h]] = f"conj[{group.label(h)}]"
    aut = FiniteGroup(_composition_table(autos), names=names, name=f"Aut({group.name})")
    aut.inner = inner
    return aut, autos


# ---------------------------------------------------------------- matrix side

def frobenius_norms(stack):
    """np.linalg.norm of each matrix in a (N, n, n) stack, with the same bits.

    np.linalg.norm sums squares as dot(re, re) + dot(im, im) over the
    flattened matrix. A stacked (1, n*n) @ (n*n, 1) product of the strided
    real and imaginary views rounds the same way; einsum, sum(axis) and
    norm(axis=(1, 2)) do not.
    """
    stack = np.asarray(stack)
    flat = stack.reshape(stack.shape[0], int(np.prod(stack.shape[1:])))
    parts = (flat.real, flat.imag) if np.iscomplexobj(flat) else (flat,)
    sq = sum((p[:, None, :] @ p[:, :, None])[:, 0, 0] for p in parts)
    return np.sqrt(sq)


def max_norm(stack):
    """The largest `frobenius_norms` of a stack, 0.0 for an empty one.

    A NaN norm never wins, as in a loop of max(worst, norm) from 0.0: a
    residual is a number even where a form has no value at some points.
    """
    return float(np.fmax.reduce(frobenius_norms(stack), initial=0.0))


class LieAlgebra:
    """Real Lie algebra of matrices with a fixed basis and projection."""

    def __init__(self, name, basis, n, dtype, projector):
        self.name = name
        self.basis = [np.asarray(b, dtype=dtype) for b in basis]
        self.dim = len(self.basis)
        self.n = n
        self.dtype = dtype
        self._project = projector
        if self.dim:
            flat = np.stack([np.concatenate([b.real.ravel(), b.imag.ravel()])
                             for b in self.basis])
            # a diagonal Gram matrix (every shipped basis) gives exact unit coords
            self._dual = np.linalg.solve(flat @ flat.T, flat)
            self._stack = np.stack(self.basis)
        else:
            self._dual = None
            self._stack = np.zeros((0, n, n), dtype=dtype)
        self._structure = None

    def zero(self):
        return np.zeros((self.n, self.n), dtype=self.dtype)

    def project(self, X):
        return self._project(np.asarray(X, dtype=self.dtype))

    def contains(self, X, tol=TAU_GRP):
        X = np.asarray(X, dtype=self.dtype)
        if X.shape != (self.n, self.n):
            return False
        return np.linalg.norm(self.project(X) - X) <= tol

    def coords(self, X):
        if self.dim == 0:
            return np.zeros(0)
        X = np.asarray(X, dtype=self.dtype)
        flat = np.concatenate([X.real.ravel(), X.imag.ravel()])
        return self._dual @ flat

    def from_coords(self, c):
        """The element with coordinates c, or one element per row of a (N, dim) stack."""
        if self.dim == 0:
            return np.zeros(np.shape(c)[:-1] + (self.n, self.n), dtype=self.dtype)
        return np.tensordot(np.asarray(c, dtype=float), self._stack, axes=1)

    def random(self, rng, scale=0.6):
        c = rng.normal(size=self.dim) * scale
        nrm = np.linalg.norm(c)
        if nrm > 1.0:
            c = c / nrm
        return self.from_coords(c)

    def structure_constants(self):
        """f[a, b, c] with [e_b, e_c] = sum_a f[a,b,c] e_a."""
        if self._structure is None:
            f = np.zeros((self.dim, self.dim, self.dim))
            for b in range(self.dim):
                for c in range(self.dim):
                    f[:, b, c] = self.coords(
                        self.basis[b] @ self.basis[c] - self.basis[c] @ self.basis[b])
            self._structure = f
        return self._structure

    def __repr__(self):
        return f"<LieAlgebra {self.name} dim={self.dim}>"


# the projectors act on the last two axes, so a stack of matrices projects
# matrix by matrix with the bits of the single call

def _proj_skew_hermitian(X):
    return (X - X.conj().swapaxes(-1, -2)) / 2


def _proj_su(X):
    Y = (X - X.conj().swapaxes(-1, -2)) / 2
    n = X.shape[-1]
    return Y - (np.trace(Y, 0, -2, -1)[..., None, None] / n) * np.eye(n)


def _proj_antisymmetric(X):
    Xt = X.swapaxes(-1, -2)
    return np.real(X - Xt) / 2 if np.iscomplexobj(X) else (X - Xt) / 2


def u1_algebra():
    return LieAlgebra("u(1)", [np.array([[1j]])], 1, complex, _proj_skew_hermitian)


def su2_algebra():
    basis = [-0.5j * s for s in _SIGMA]
    return LieAlgebra("su(2)", basis, 2, complex, _proj_su)


def so3_algebra():
    L1 = np.array([[0., 0., 0.], [0., 0., -1.], [0., 1., 0.]])
    L2 = np.array([[0., 0., 1.], [0., 0., 0.], [-1., 0., 0.]])
    L3 = np.array([[0., -1., 0.], [1., 0., 0.], [0., 0., 0.]])
    return LieAlgebra("so(3)", [L1, L2, L3], 3, float, _proj_antisymmetric)


def trivial_algebra():
    return LieAlgebra("0", [], 1, float, lambda X: np.zeros(X.shape))


class MatrixGroup:
    """A connected compact matrix group, given by its Lie algebra, with
    membership test, polar projection, exp and log.

    Its elements are the unitary (real: orthogonal) n x n matrices of the
    algebra's size and field, of determinant 1 when the algebra is traceless
    (on a connected group det = exp(trace)); a zero algebra gives the
    one-element group. `n`, `dtype`, `special` and `trivial` are derived from
    the algebra once, as plain attributes: the transport loops read `trivial`
    at every step.
    """

    kind = "matrix"

    def __init__(self, name, algebra):
        self.name = name
        self.algebra = algebra
        self.n = algebra.n
        self.dtype = algebra.dtype
        self.trivial = algebra.dim == 0
        self.special = all(np.trace(b) == 0 for b in algebra.basis)

    @property
    def identity(self):
        return np.eye(self.n, dtype=self.dtype)

    def _cast(self, g):
        g = np.asarray(g)
        if self.dtype is float and np.iscomplexobj(g):
            if g.size and np.abs(g.imag).max() > 1e-9:
                raise GroupDomainError(
                    f"{self.name} is a real matrix group, got complex entries")
            g = g.real
        return g.astype(self.dtype, copy=False)

    def defect(self, g):
        """Distance from the group's defining constraints (not from membership).

        A (N, n, n) stack gives one distance per matrix.
        """
        g = self._cast(g)
        if g.ndim == 3 and g.shape[1:] == (self.n, self.n):
            return self._stack_defect(g)
        if g.shape != (self.n, self.n):
            return np.inf
        return float(self._stack_defect(g[None])[0])

    def _stack_defect(self, g):
        # per matrix: the Frobenius norm of g - 1 on the trivial group, else
        # of g^H g - 1, and on a special group the larger of that and
        # |det g - 1|, as max(d, off) would take it (d unless off > d, so a
        # NaN off keeps d); np.hypot is the scalar complex abs
        eye = np.eye(self.n)
        if self.trivial:
            return frobenius_norms(g - eye)
        d = frobenius_norms(g.conj().swapaxes(-1, -2) @ g - eye)
        if self.special:
            off = np.linalg.det(g) - 1.0
            off = np.hypot(off.real, off.imag) if np.iscomplexobj(off) else np.abs(off)
            d = np.where(off > d, off, d)
        return d

    def _defect_against(self, g, bound):
        """`defect(g)` compared with `bound`: a float for one matrix, an array
        for a (N, n, n) stack, which is either the exact defect or a cheaper
        value that lies on the same side of `bound` (`>` and `<=` alike, NaN
        included).

        The cheap value is ||g^H g - I||_F, and max with |det g - 1| for a
        special group, summed entry by entry: in Python arithmetic on
        `g.tolist()` for one matrix (the 2x2 case unrolled), in elementwise
        numpy for a stack. It covers n = 1, 2 and 3; other groups, and a
        matrix of another shape, take the exact defect. The exact defect
        decides wherever the cheap value is not finite or lies within a
        relative band of _BAND = 1e-3 around `bound`.

        Why that keeps every decision of the exact defect: a defect near
        either bound in use (1e-10 in `renormalize`, 1e-6 in `_check`) forces
        every column of g to have norm within about 1e-6 of 1. There, both
        computations round the same squared entries in a different order,
        and they differ by a few ulps, about 1e-15 absolute. At 1e-10 the band
        is 1e-13 wide, about 100x that difference, so every decision, and
        every output bit, is the exact defect's. A cheap value that is finite
        needs finite entries, so it cannot stand for a NaN defect.
        """
        g = self._cast(g)
        n = self.n
        if self.trivial or n > 3:
            return self.defect(g)
        if g.shape == (n, n):
            d = self._cheap_defect(g.tolist())
            # NaN fails both tests, inf the second
            if abs(d - bound) > _BAND * bound and d < math.inf:
                return d
            return self.defect(g)
        if g.ndim != 3 or g.shape[1:] != (n, n):
            return self.defect(g)
        with np.errstate(invalid="ignore", over="ignore"):
            d = self._cheap_stack_defect(g)
            far = np.abs(d - bound) > _BAND * bound
        far &= d < np.inf
        if not far.all():
            near = np.flatnonzero(~far)
            d[near] = self._stack_defect(g[near])
        return d

    def _cheap_defect(self, rows):
        """`_defect_against`'s cheap value for one matrix given as nested lists."""
        # squares as z * conj(z): ** and complex abs raise on overflow
        if self.n == 2:
            (a, b), (c, d) = rows
            ac, cc = a.conjugate(), c.conjugate()
            x = (a * ac + c * cc).real - 1.0
            y = (b * b.conjugate() + d * d.conjugate()).real - 1.0
            z = ac * b + cc * d
            sq = x * x + y * y + 2.0 * (z * z.conjugate()).real
            if self.special:
                w = a * d - b * c - 1.0
                sq = max(sq, (w * w.conjugate()).real)
            return math.sqrt(sq)
        cols = list(zip(*rows))
        sq = 0.0
        for i, u in enumerate(cols):
            x = sum(e * e.conjugate() for e in u).real - 1.0
            sq += x * x
            for v in cols[i + 1:]:
                z = sum(p.conjugate() * q for p, q in zip(u, v))
                sq += 2.0 * (z * z.conjugate()).real
        if self.special:  # n = 3 here: a special 1x1 group is trivial
            (a, b, c), (d, e, f), (p, q, r) = rows
            w = a * (e * r - f * q) - b * (d * r - f * p) + c * (d * q - e * p) - 1.0
            sq = max(sq, (w * w.conjugate()).real)
        return math.sqrt(sq)

    def _cheap_stack_defect(self, g):
        """`_defect_against`'s cheap value for each matrix of a (N, n, n) stack."""
        n = self.n
        gc = g.conj()
        m = -np.eye(n)
        for k in range(n):  # row k's terms of g^H g
            m = m + gc[:, k, :, None] * g[:, k, None, :]
        flat = m.reshape(-1, n * n)
        if np.iscomplexobj(flat):
            flat = flat.view(float)
        d = np.sqrt((flat * flat).sum(axis=1))
        if self.special:
            if n == 2:
                det = g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0]
            else:
                (a, b, c), (d_, e, f), (p, q, r) = (g[:, i].T for i in range(3))
                det = a * (e * r - f * q) - b * (d_ * r - f * p) + c * (d_ * q - e * p)
            d = np.maximum(d, np.abs(det - 1.0))
        return d

    def contains(self, g, tol=TAU_GRP):
        g = np.asarray(g)
        if g.shape != (self.n, self.n):
            return False
        return self.defect(g) <= tol

    def _check(self, g):
        """g itself, after checking that it (or each matrix of a stack) is in the group.

        A matrix is in when its defect is within 1e-6, as decided by
        `_defect_against` with the exact defect's answer; a refusal names the
        exact defect of the (first) refused matrix.
        """
        g = self._cast(g)
        stack = g.shape != (self.n, self.n)
        if stack and (g.ndim != 3 or g.shape[1:] != (self.n, self.n)):
            raise GroupDomainError(
                f"expected {self.n}x{self.n} matrix for {self.name}, got shape {g.shape}")
        d = self._defect_against(g, 1e-6)
        # `not d <= bound` and not `d > bound`: a NaN defect must fail
        if stack:
            bad = np.flatnonzero(~(d <= 1e-6))
            if not len(bad):
                return g
            g = g[bad[0]]
        elif d <= 1e-6:
            return g
        raise GroupDomainError(f"matrix is not in {self.name} (defect {self.defect(g):.2e})")

    def project(self, g):
        """Nearest group element (polar projection; det-corrected for special groups)."""
        g = self._cast(g)
        if self.trivial:
            return np.eye(self.n) if g.ndim < 3 else np.broadcast_to(np.eye(self.n), g.shape).copy()
        u, _, vh = np.linalg.svd(g)
        q = u @ vh
        if self.special:
            det = np.linalg.det(q)
            if q.ndim == 3:
                # the scalar power per matrix: array ** rounds differently
                det = np.array([d ** (1.0 / self.n) for d in det])[:, None, None]
                q = q / det
            else:
                q = q / det ** (1.0 / self.n)
        if self.dtype is float:
            q = np.real(q)
        return q

    def renormalize(self, g):
        """g, or its `project`ion where its defect exceeds TAU_GRP / 10 (each
        matrix of a stack on its own): the projection method, which leaves a
        step alone while its drift is within tolerance. `_defect_against`
        decides, with the exact defect's answer and mostly without its cost.
        """
        if self.trivial:
            return g
        d = self._defect_against(g, TAU_GRP / 10)
        if isinstance(d, np.ndarray):
            redo = np.flatnonzero(d > TAU_GRP / 10)
            if len(redo):
                g = np.array(g)
                g[redo] = self.project(g[redo])
            return g
        if d > TAU_GRP / 10:
            return self.project(g)
        return g

    def mul(self, a, b):
        return self.renormalize(self._check(a) @ self._check(b))

    def inv(self, a):
        return self._check(a).conj().swapaxes(-1, -2)

    def conj(self, g, h):
        return self.renormalize(self._check(g) @ self._check(h) @ self.inv(g))

    def eq(self, a, b, tol=TAU_GRP):
        """Whether a and b agree within tol: one bool per matrix of a stack."""
        a = np.asarray(a)
        b = np.asarray(b)
        if max(a.ndim, b.ndim) == 3:
            return frobenius_norms(a - b) <= tol
        return a.shape == b.shape and np.linalg.norm(a - b) <= tol

    def exp(self, x):
        """exp of an algebra element, or of each matrix of an (N, n, n) stack
        with the bits it would get alone (one scipy expm call per stack)."""
        if self.trivial:
            return np.broadcast_to(self.identity, np.shape(x)[:-2] + (1, 1)).copy()
        x = np.asarray(x, dtype=self.dtype)
        if self.n == 1:  # what scipy's expm returns for 1x1 matrices
            return self.renormalize(np.exp(x))
        import scipy.linalg  # loaded on first use: most runs need no scipy
        return self.renormalize(scipy.linalg.expm(x))

    def log(self, g):
        """Principal logarithm, or that of each matrix of an (N, n, n) stack;
        refuses arguments at the cut locus.

        The cut locus is exactly where an eigenvalue reaches the negative real
        axis; the offending eigenvalue (of the first such matrix of a stack) is
        reported. A complex 1x1 log is np.log, the bits scipy's logm gives it;
        larger ones take one logm per matrix.
        """
        g = self._check(g)
        if self.trivial:
            return np.zeros(g.shape, dtype=self.dtype)
        matrices = g.reshape(-1, self.n, self.n)
        refused = np.abs(np.angle(np.linalg.eigvals(matrices))).max(axis=1) >= np.pi - 1e-8
        if refused.any():
            # the matrix's own eigenvalues: a stack's are complex if any one's are
            w = np.linalg.eigvals(matrices[np.argmax(refused)])
            k = int(np.argmax(np.abs(np.angle(w))))
            raise LogRangeError(f"log at cut locus of {self.name}: eigenvalue {w[k]:.6g} "
                                "has phase at pi", eigenvalue=w[k])
        if self.n == 1 and self.dtype is complex:
            X = np.log(g)
        else:
            import scipy.linalg
            X = (scipy.linalg.logm(g) if g.ndim == 2
                 else np.array([scipy.linalg.logm(m) for m in g]).reshape(g.shape))
        return self.algebra.project(X)

    def random(self, rng):
        """A random element: exp of a random algebra element of scale 0.6."""
        if self.trivial:
            return self.identity
        return self.exp(self.algebra.random(rng, 0.6))

    def label(self, g):
        return np.array2string(np.asarray(g), precision=4, suppress_small=True)

    def __repr__(self):
        return f"<MatrixGroup {self.name}>"


def U1():
    return MatrixGroup("U1", u1_algebra())


def SU2():
    return MatrixGroup("SU2", su2_algebra())


def SO3():
    return MatrixGroup("SO3", so3_algebra())


def TRIVIAL():
    return MatrixGroup("TRIVIAL", trivial_algebra())


# ------------------------------------------------------------ stacked sampling

def random_algebra_stacks(algebras, rng, samples, scale):
    """`samples` random tuples of algebra elements, one (samples, n, n) stack
    per algebra, with the draws and bits of the tuple loop

        [tuple(a.random(rng, scale) for a in algebras) for _ in range(samples)]

    One rng.normal call draws every coordinate (the tuple loop's stream,
    row by row), `frobenius_norms` gives np.linalg.norm's bits for the clip,
    and `from_coords` maps a whole stack of coordinates at once.
    """
    dims = [a.dim for a in algebras]
    coords = rng.normal(size=(samples, sum(dims))) * scale
    stacks = []
    for a, c in zip(algebras, np.split(coords, np.cumsum(dims)[:-1], axis=1)):
        norms = frobenius_norms(c)
        stacks.append(a.from_coords(c / np.where(norms > 1.0, norms, 1.0)[:, None]))
    return stacks


def random_stacks(groups, rng, samples):
    """`samples` random tuples of group elements, one stack per group, with
    the draws and bits of the tuple loop

        [tuple(g.random(rng) for g in groups) for _ in range(samples)]

    Each matrix group exponentiates its column with one stacked `exp`, at
    `MatrixGroup.random`'s scale 0.6. A finite group draws integers, so a
    tuple with one runs that loop itself and stacks its columns.
    """
    if any(g.kind == "finite" for g in groups):
        cases = [tuple(g.random(rng) for g in groups) for _ in range(samples)]
        return tuple(np.array([case[k] for case in cases], dtype=np.asarray(g.identity).dtype)
                     .reshape((samples,) + np.shape(g.identity))
                     for k, g in enumerate(groups))
    xs = random_algebra_stacks([g.algebra for g in groups], rng, samples, 0.6)
    return tuple(g.exp(x) for g, x in zip(groups, xs))
