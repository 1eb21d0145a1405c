"""Cover nerves, gluing 2-cocycles, and their diagram checkers.

A nerve is purely combinatorial: chart labels plus the declared double,
triple and quadruple overlaps. Gluing data assigns a base-group value g to
each double, a fiber-group value h to each triple, and optionally a unit
corrector k to each chart. All stored fiber values use the right-multiplied
convention

    g_ij g_jk t(h_ijk) = g_ik        and        g_ii t(k_i) = 1,

so the 2-cell carried by a stored value d with source y is (y, alpha(y)(d)),
whose target is y t(d). Only the triangle is checked by its defining
equation; the tetrahedron, unit laws, and the coboundary transform of h are
all computed by generic TwoCell pasting of the corresponding diagrams, so
their meaning is tied to the one set of composition conventions in
twocells.py rather than to hand-expanded formulas. Closed-form versions of
these pastings exist only in the test suite, as independent oracles. The
census runs the same diagram functions over a module's compiled tables,
where they paste CellBatch batches of states instead of single TwoCells,
with one more axis for the census's moves.

Overlap values may be constants (finite indices or matrices) or point
functions, evaluated at a nerve's sample points per overlap. One routine
samples, scores and witnesses every gluing law; an empty sample list skips it.
"""

import itertools

import numpy as np

from .crossed import CompiledModule, _blocks, validate_crossed_module
from .errors import BudgetExceeded, CompositionError, ConfigError, TwoGaugeError
from .groups import TAU_GRP
from .report import NO_SAMPLES, ValidationReport
from .twocells import CellBatch, TwoCell

# classify_finite refuses a nerve with more candidate assignments than this
CENSUS_BUDGET = 10 ** 7


def _faces(overlap):
    return [overlap[:m] + overlap[m + 1:] for m in range(len(overlap))]


class CoverNerve:
    """Chart labels with declared double/triple/quadruple overlaps.

    Degenerate overlaps such as (i, i) or (i, i, j) are allowed; they are
    what the unit laws quantify over. Every face of a declared overlap must
    itself be declared, and each overlap is declared once: a repeat would be
    a second, independent unknown of the census for the same overlap.
    """

    def __init__(self, charts, doubles=(), triples=(), quads=(), samples=None):
        self.charts = list(charts)
        if len(set(self.charts)) != len(self.charts):
            raise ConfigError("nerve chart labels must be distinct")
        self.doubles = [tuple(d) for d in doubles]
        self.triples = [tuple(t) for t in triples]
        self.quads = [tuple(q) for q in quads]
        self.samples = {tuple(k): list(v) for k, v in samples.items()} \
            if samples else {}
        problems = []
        known = set(self.charts)
        for group, width in ((self.doubles, 2), (self.triples, 3), (self.quads, 4)):
            seen = set()
            for ov in group:
                if len(ov) != width:
                    problems.append(f"overlap {ov} has the wrong arity")
                elif not set(ov) <= known:
                    problems.append(f"overlap {ov} names unknown charts")
                elif ov in seen:
                    problems.append(f"overlap {ov} is declared more than once")
                seen.add(ov)
        dset, tset = set(self.doubles), set(self.triples)
        problems += [f"samples given for undeclared overlap {key}" for key in self.samples
                     if key not in dset | tset | set(self.quads)]
        for t in self.triples:
            for edge in _faces(t):
                if edge not in dset:
                    problems.append(f"edge {edge} of triple {t} is not a declared double")
        for q in self.quads:
            for face in _faces(q):
                if face not in tset:
                    problems.append(f"face {face} of quad {q} is not a declared triple")
        if problems:
            raise ConfigError(problems)

    def points(self, overlap):
        """Sample points for one overlap; [None] means constant data."""
        return self.samples.get(tuple(overlap), [None])

    @property
    def is_strict(self):
        """True when every overlap lists distinct charts in increasing order."""
        return all(list(ov) == sorted(set(ov))
                   for ov in self.doubles + self.triples + self.quads)

    def __repr__(self):
        return (f"<CoverNerve charts={len(self.charts)} doubles={len(self.doubles)} "
                f"triples={len(self.triples)} quads={len(self.quads)}>")


def _complete(charts, width):
    return list(itertools.combinations(charts, width))


def nerve(name):
    """Shipped combinatorial covers by name."""
    if name == "single-chart":
        return CoverNerve([0])
    if name == "two-charts":
        return CoverNerve([0, 1], doubles=[(0, 1)])
    if name == "triangle":
        return CoverNerve([0, 1, 2], doubles=_complete(range(3), 2),
                          triples=[(0, 1, 2)])
    if name == "sphere":
        # boundary of the solid tetrahedron: all faces, empty interior
        return CoverNerve(range(4), doubles=_complete(range(4), 2),
                          triples=_complete(range(4), 3))
    if name == "tetrahedron":
        return CoverNerve(range(4), doubles=_complete(range(4), 2),
                          triples=_complete(range(4), 3),
                          quads=[(0, 1, 2, 3)])
    if name == "pair-with-units":
        return CoverNerve([0, 1],
                          doubles=[(0, 0), (0, 1), (1, 1)],
                          triples=[(0, 0, 1), (0, 1, 1)])
    raise ConfigError(f"unknown nerve {name!r}; shipped: {', '.join(NERVE_FIXTURES)}")


NERVE_FIXTURES = ["single-chart", "two-charts", "triangle", "sphere",
                  "tetrahedron", "pair-with-units"]


def _eval(value, point):
    if hasattr(value, "at"):
        return value.at(point)
    if callable(value):
        return value(point)
    return value


class GluingCocycle:
    """Transition data over a nerve: g per double, h per triple, k per chart.

    Every declared overlap must list its charts in non-decreasing order and
    have data, and over a finite module every value must be an element of
    its group (checked up front, all problems reported together). A reversed
    overlap such as (1, 0) is refused: no law would tie its g to g(0, 1)^-1,
    so the checks would pass whatever it holds. Degenerate overlaps such as
    (0, 0) and (0, 1, 1) are the unit laws' and are accepted. Unit
    correctors k default to the group identity, which is the normalized case.
    """

    def __init__(self, cm, nerve, g, h=None, k=None):
        self.cm = cm
        self.nerve = nerve
        self.g = {tuple(key): val for key, val in g.items()}
        self.h = {tuple(key): val for key, val in (h or {}).items()}
        self.k = dict(k) if k else {}
        problems = [f"overlap {ov} lists its charts out of order"
                    for ov in nerve.doubles + nerve.triples + nerve.quads
                    if list(ov) != sorted(ov)]
        for d in nerve.doubles:
            if d not in self.g:
                problems.append(f"double {d} has no g value")
        for t in nerve.triples:
            if t not in self.h:
                problems.append(f"triple {t} has no h value")
        for key in self.g:
            if key not in set(nerve.doubles):
                problems.append(f"g value for undeclared double {key}")
        for key in self.h:
            if key not in set(nerve.triples):
                problems.append(f"h value for undeclared triple {key}")
        for key in self.k:
            if key not in set(nerve.charts):
                problems.append(f"k value for unknown chart {key!r}")
        if cm.is_finite:
            for part, values, group in (("g", self.g, cm.G), ("h", self.h, cm.H),
                                        ("k", self.k, cm.H)):
                for key, val in values.items():
                    if not group.contains(val):
                        problems.append(f"{part} value {val!r} at {key} is not an "
                                        f"element of {group.name}")
        if problems:
            raise ConfigError(problems)

    def g_at(self, pair, point=None):
        return _eval(self.g[tuple(pair)], point)

    def h_at(self, triple, point=None):
        return _eval(self.h[tuple(triple)], point)

    def k_at(self, chart, point=None):
        if chart in self.k:
            return _eval(self.k[chart], point)
        return self.cm.H.identity


def _cells(cm):
    # over compiled tables the diagrams below paste whole batches of states
    return CellBatch if isinstance(cm, CompiledModule) else TwoCell


def _cell(cm, source, value):
    # the 2-cell from `source` to `source t(value)` carrying stored data
    return _cells(cm)(cm, source, cm.alpha(source, value))


def _residual(group, x, y):
    if group.kind == "finite":
        return 0.0 if x == y else 1.0
    return float(np.linalg.norm(np.asarray(x) - np.asarray(y)))


def _check_law(rep, data, name, overlap, where, sides, show_sides=False):
    """Check one gluing law at each sample point of `overlap`, into `rep`.

    `sides(p)` lists the law's (group, left, right) pairs at p. The witness
    is `where`, the first worst point and, with `show_sides`, the last pair's
    sides. No points: skipped. Sides that do not compose: failed at once.
    """
    points = data.nerve.points(overlap)
    if not points:
        rep.skip(name, NO_SAMPLES)
        return
    worst = 0.0
    for p in points:
        try:
            pairs = sides(p)
        except CompositionError as exc:
            rep.add(name, False, witness={**where, "point": p, "reason": str(exc)},
                    detail="prerequisite triangle fails, sides do not compose")
            return
        for group, x, y in pairs:
            r = _residual(group, x, y)
            if r > worst:
                worst, worst_point, worst_pairs = r, p, pairs
    ok = worst <= (0.0 if data.cm.G.kind == "finite" else TAU_GRP)
    witness = None if ok else {**where, "point": worst_point}
    if show_sides and not ok:
        _, witness["left"], witness["right"] = worst_pairs[-1]
    rep.add(name, ok, residual=worst, tolerance=TAU_GRP, witness=witness)


def check_triangle(data):
    """g_ij g_jk t(h_ijk) = g_ik on each declared triple.

    Finite values must agree exactly; matrix values within TAU_GRP.
    """
    cm = data.cm
    G = cm.G
    rep = ValidationReport("triangle laws")
    for tri in data.nerve.triples:
        i, j, k = tri

        def sides(p):
            lhs = G.mul(G.mul(data.g_at((i, j), p), data.g_at((j, k), p)),
                        cm.t(data.h_at(tri, p)))
            return ((G, lhs, data.g_at((i, k), p)),)

        _check_law(rep, data, f"triangle({i},{j},{k})", tri, {"triple": list(tri)},
                   sides)
    return rep


def _tetra_sides(cm, gv, hv, quad, tol=None):
    """The two pastings around a quadruple; gv/hv map overlaps to values."""
    i, j, k, l = quad
    C_ijk = _cell(cm, cm.G.mul(gv((i, j)), gv((j, k))), hv((i, j, k)))
    C_ikl = _cell(cm, cm.G.mul(gv((i, k)), gv((k, l))), hv((i, k, l)))
    C_jkl = _cell(cm, cm.G.mul(gv((j, k)), gv((k, l))), hv((j, k, l)))
    C_ijl = _cell(cm, cm.G.mul(gv((i, j)), gv((j, l))), hv((i, j, l)))
    side1 = C_ijk.whisker_right(gv((k, l))).vertical(C_ikl, tol=tol)
    side2 = C_jkl.whisker_left(gv((i, j))).vertical(C_ijl, tol=tol)
    return side1, side2


def check_tetrahedron(data):
    """Pasting equality of the two routes around each declared quadruple.

    Both routes are composed with the generic 2-cell operations, so this
    check inherits the composition conventions instead of restating them.
    Finite routes must agree exactly; matrix routes within TAU_GRP, and
    their cells compose when the 1-arrows match within 10 TAU_GRP.
    """
    cm = data.cm
    rep = ValidationReport("tetrahedron laws")
    ctol = None if cm.G.kind == "finite" else 10 * TAU_GRP
    for quad in data.nerve.quads:
        def sides(p):
            s1, s2 = _tetra_sides(cm, lambda d: data.g_at(d, p),
                                  lambda t: data.h_at(t, p), quad, tol=ctol)
            return (cm.G, s1.g, s2.g), (cm.H, s1.h, s2.h)

        _check_law(rep, data, "tetrahedron({},{},{},{})".format(*quad), quad,
                   {"quad": list(quad)}, sides, show_sides=True)
    return rep


def check_unit_laws(data):
    """Unit-corrector diagrams on degenerate overlaps.

    For each chart with (i, i) declared: g_ii t(k_i) = 1. For each declared
    (a, a, c) or (a, b, b): the k cell at chart b, on g_bb (= g_ab or g_bc),
    whiskered right by g_bc or left by g_ab, equals the h cell on g_ab g_bc.
    Whiskers and comparisons go through the 2-cell engine. Finite values
    must agree exactly; matrix values within TAU_GRP.
    """
    cm = data.cm
    G = cm.G
    rep = ValidationReport("unit laws")
    dset = set(data.nerve.doubles)
    for i in data.nerve.charts:
        if (i, i) in dset:
            def target(p):
                lhs = G.mul(data.g_at((i, i), p), cm.t(data.k_at(i, p)))
                return ((G, lhs, G.identity),)

            _check_law(rep, data, f"unit-target({i})", (i, i), {"chart": i}, target)
    for tri in data.nerve.triples:
        a, b, c = tri
        if (a == b) == (b == c):
            continue
        left = a == b

        def unit(p):
            g_ab, g_bc = data.g_at((a, b), p), data.g_at((b, c), p)
            K = _cell(cm, g_ab if left else g_bc, data.k_at(b, p))
            whiskered = K.whisker_right(g_bc) if left else K.whisker_left(g_ab)
            law = _cell(cm, G.mul(g_ab, g_bc), data.h_at(tri, p))
            return ((cm.H, whiskered.h, law.h),)

        _check_law(rep, data, f"left-unit({a},{c})" if left else f"right-unit({a},{b})",
                   tri, {"triple": list(tri)}, unit)
    if not rep.checks:
        rep.skip("unit-laws", "no degenerate overlaps declared")
    return rep


# ------------------------------------------------------------ coboundary side

def _unbridge(cm, cell):
    # recover stored data from a cell: the inverse of _cell
    return cm.alpha(cm.G.inv(cell.g), cell.h)


def _transformed_double(cm, gv, lam, bv, pair):
    i, j = pair
    G = cm.G
    return G.mul(G.mul(G.mul(lam(i), gv(pair)), cm.t(bv(pair))), G.inv(lam(j)))


def _transformed_triple(cm, gv, hv, lam, bv, tri):
    """New h over a triple, as the pasting around the changed squares."""
    i, j, k = tri
    G = cm.G

    def beta(pair):
        a, b = pair
        src = G.mul(G.mul(lam(a), gv(pair)), G.inv(lam(b)))
        return _cell(cm, src, cm.alpha(lam(b), bv(pair)))

    X = beta((i, j)).horizontal(beta((j, k)))
    identity = _cells(cm).identity
    mid = (identity(cm, lam(i))
           .horizontal(_cell(cm, G.mul(gv((i, j)), gv((j, k))), hv(tri)))
           .horizontal(identity(cm, G.inv(lam(k)))))
    comp = X.vertical_inverse().vertical(mid).vertical(beta((i, k)))
    return _unbridge(cm, comp)


def _transformed_unit(cm, gv, kv, lam, bv, chart):
    i = chart
    G = cm.G
    src = G.mul(G.mul(lam(i), gv((i, i))), G.inv(lam(i)))
    beta = _cell(cm, src, cm.alpha(lam(i), bv((i, i))))
    mid = (TwoCell.identity(cm, lam(i))
           .horizontal(_cell(cm, gv((i, i)), kv(i)))
           .horizontal(TwoCell.identity(cm, G.inv(lam(i)))))
    comp = beta.vertical_inverse().vertical(mid)
    return _unbridge(cm, comp)


def coboundary_act(data, lam=None, b=None, check=True):
    """Change of local trivializations: g'_ij = lam_i g_ij t(b_ij) lam_j^-1.

    h and k transform by the pasting of the corresponding diagrams. Finite
    mode only. With check=True the result is re-validated; a failure there
    would mean the pasting itself is broken, so it raises.
    """
    cm = data.cm
    if not cm.is_finite:
        raise ConfigError("coboundary action is implemented for finite mode")
    lam = dict(lam) if lam else {}
    b = {tuple(key): val for key, val in b.items()} if b else {}

    def lam_at(i):
        return lam.get(i, cm.G.identity)

    def b_at(pair):
        return b.get(tuple(pair), cm.H.identity)

    gv, hv, kv = data.g_at, data.h_at, data.k_at
    new_g = {d: _transformed_double(cm, gv, lam_at, b_at, d)
             for d in data.nerve.doubles}
    new_h = {t: _transformed_triple(cm, gv, hv, lam_at, b_at, t)
             for t in data.nerve.triples}
    new_k = {}
    dset = set(data.nerve.doubles)
    for i in data.nerve.charts:
        if (i, i) in dset:
            new_k[i] = _transformed_unit(cm, gv, kv, lam_at, b_at, i)
    out = GluingCocycle(cm, data.nerve, new_g, new_h, new_k)
    if check:
        # closure: the change of trivializations must preserve every verdict
        for checker in (check_triangle, check_tetrahedron, check_unit_laws):
            before = {c.name: c.verdict for c in checker(data).checks}
            after = {c.name: c.verdict for c in checker(out).checks}
            if before != after:
                raise TwoGaugeError(
                    f"coboundary pasting changed verdicts: {before} -> {after}")
    return out


# ---------------------------------------------------------- finite census

class _StateLayout:
    """The census state encoding, defined in this one place.

    A state is one G column per double overlap followed by one H column per
    triple overlap, read as a mixed-radix code whose first column is the most
    significant, so code order is the lexicographic order of the states.
    """

    def __init__(self, tab, doubles, triples):
        self.doubles = doubles
        self.triples = triples
        self.radices = [tab.G.order] * len(doubles) + [tab.H.order] * len(triples)
        self.d_index = {d: n for n, d in enumerate(doubles)}
        self.t_index = {t: len(doubles) + n for n, t in enumerate(triples)}
        # place value of each column in a code
        self.weights = [int(np.prod(self.radices[n + 1:], dtype=np.int64))
                        for n in range(len(self.radices))]

    def code(self, columns, n):
        """Codes of the n states whose leading columns are `columns`."""
        code = np.zeros(n, dtype=np.int64)
        for column, radix in zip(columns, self.radices):
            code = code * radix + column
        return code

    def digits(self, codes, width=None):
        """The leading `width` columns (all by default) of the coded states."""
        columns = []
        for radix in reversed(self.radices[:width]):
            columns.append(codes % radix)
            codes = codes // radix
        return columns[::-1]

    def accessors(self, columns):
        """(gv, hv): a double's and a triple's column of the states."""
        return (lambda d: columns[self.d_index[d]],
                lambda t: columns[self.t_index[t]])


def _cocycle_codes(tab, layout, quads):
    """Codes of all normalized cocycles, in increasing (lexicographic) order.

    g runs over every assignment; h over the product of each triangle's
    t-preimage coset, listed in increasing element order; the survivors of
    the tetrahedron pastings are kept. Both loops run in blocks of states.
    """
    G = tab.G
    n_d = len(layout.doubles)
    triples = layout.triples
    # the t-preimage of c is by_t[first[c]:first[c] + count[c]], ascending
    by_t = np.argsort(tab.t_table, kind="stable")
    count = np.bincount(tab.t_table, minlength=G.order)
    first = np.cumsum(count) - count
    found = []
    for g_codes in _blocks(G.order ** n_d):
        gv, _ = layout.accessors(layout.digits(g_codes, n_d))
        cosets = [G.mul(G.inv(G.mul(gv((i, j)), gv((j, k)))), gv((i, k)))
                  for (i, j, k) in triples]
        sizes = [count[c] for c in cosets]
        per_row = (np.prod(sizes, axis=0) if triples
                   else np.ones(len(g_codes), dtype=np.int64))
        end = np.cumsum(per_row)
        for pos in _blocks(int(end[-1])):
            row = np.searchsorted(end, pos, side="right")
            rank = pos - (end[row] - per_row[row])
            hs = [None] * len(triples)
            for n in reversed(range(len(triples))):
                size = sizes[n][row]
                hs[n] = by_t[first[cosets[n][row]] + rank % size]
                rank = rank // size
            columns = [gv(d)[row] for d in layout.doubles] + hs
            gv_rows, hv_rows = layout.accessors(columns)
            keep = np.ones(len(pos), dtype=bool)
            for quad in quads:
                s1, s2 = _tetra_sides(tab, gv_rows, hv_rows, quad)
                keep &= s1.eq(s2)
            found.append(layout.code(columns, len(pos))[keep])
    return np.concatenate(found) if found else np.zeros(0, dtype=np.int64)


class _Moves:
    """Changes of trivializations, prepared column by column for `_moved_codes`.

    `sites` lists the moves as (lam, bmap) pairs, lam mapping charts to G
    elements and bmap doubles to H elements. A move touches a double when lam
    holds one of its charts or bmap holds the double itself, and a triple
    when lam holds one of its charts or bmap holds one of its edges. For each
    touched column, `columns` keeps its index in the state layout, the rows
    of the moves that touch it and, for every chart and edge its pasting
    reads, those moves' values as a (rows, 1) array, with the identity where
    a move leaves that site alone, or as one scalar where all of them hold
    the same value there. It is built once per census.
    """

    def __init__(self, tab, layout, sites):
        self.sites = list(sites)
        self.columns = []
        G_id, H_id = tab.G.identity, tab.H.identity
        for overlap in layout.doubles + layout.triples:
            edges = [overlap] if len(overlap) == 2 else _faces(overlap)
            rows = [m for m, (lam, bmap) in enumerate(self.sites)
                    if not lam.keys().isdisjoint(overlap)
                    or not bmap.keys().isdisjoint(edges)]
            if not rows:
                continue
            # the touching moves' values at each chart, then at each edge; one
            # that every touching move shares stays a scalar, so the pastings
            # broadcast it against the states alone
            values = ([[self.sites[m][0].get(c, G_id) for m in rows] for c in overlap]
                      + [[self.sites[m][1].get(e, H_id) for m in rows] for e in edges])
            values = [v[0] if len(set(v)) == 1 else np.array(v)[:, np.newaxis]
                      for v in values]
            lam = dict(zip(overlap, values))
            b = dict(zip(edges, values[len(overlap):]))
            n = (layout.d_index[overlap] if len(overlap) == 2
                 else layout.t_index[overlap])
            self.columns.append((n, overlap, np.array(rows), lam, b))


def _moved_codes(tab, layout, codes, moves):
    """Codes of the states reached from `codes` by each of `moves` (a _Moves).

    Row m of the (moves, states) result holds the codes after move m. Each
    touched column is pasted once, for all the moves that touch it at once:
    their (rows, 1) values broadcast against the states' columns, so the
    diagram functions paste a (rows, states) batch of cells. A move
    that does not touch a column would paste identities around its stored
    value and give it back, so it keeps the column's digit and its codes
    change by its touched columns' differences alone. Each column the
    pastings read is decoded once.
    """
    decoded = {}

    def column(n):
        if n not in decoded:
            decoded[n] = codes // layout.weights[n] % layout.radices[n]
        return decoded[n]

    gv = lambda d: column(layout.d_index[d])
    hv = lambda t: column(layout.t_index[t])
    moved = np.repeat(codes[np.newaxis], len(moves.sites), axis=0)
    for n, overlap, rows, lam, b in moves.columns:
        if len(overlap) == 2:
            digit = _transformed_double(tab, gv, lam.__getitem__, b.__getitem__, overlap)
        else:
            digit = _transformed_triple(tab, gv, hv, lam.__getitem__, b.__getitem__,
                                        overlap)
        moved[rows] += (digit - column(n)) * layout.weights[n]
    return moved


def _merge(parent, other):
    """Union-find over index arrays: join each state n with state other[n].

    `parent` is kept fully compressed and every class points at its least
    member, so parent[n] is always the least state of n's class.
    """
    while True:
        a, b = parent, parent[other]
        split = a != b
        if not split.any():
            return
        np.minimum.at(parent, np.maximum(a[split], b[split]),
                      np.minimum(a[split], b[split]))
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent[:] = up


def classify_finite(cm, nerve):
    """Enumerate normalized cocycles and their coboundary orbits.

    Normalized means k_i = 1 with data only on strictly increasing overlaps.
    Enumeration is lexicographic in (overlap order, element index); orbit
    representatives are the lexicographically least states, so the census is
    deterministic. Refuses when |G|^#doubles * |H|^#triples exceeds
    CENSUS_BUDGET, and refuses a pair (G, H, t, alpha) that fails the
    crossed-module axioms. The axioms are checked on the first census of a
    module object; the verdict, failing or not, is kept with its compiled
    tables (`CompiledModule.axiom_failures`) for every later census.

    The states are pasted in batches over the module's compiled tables and
    stored as mixed-radix codes. The single-site changes of trivializations
    are listed once, one per chart and G generator and one per double and H
    generator, and all of them are applied in one pass per block of
    cocycles (`_moved_codes`): each column is pasted once for every move
    that touches it. The moved codes are mapped back to cocycle indices,
    one row of targets per move, and the classes are the components of
    those maps (union-find, one merge per move). Components do not depend
    on the order of the merges, so the census does not depend on the block
    size.

    Move values range over a generating set of G (lam at a chart) or H (b at
    a double), not over every element: the moves at one site compose as a
    group action (lam: m_x m_y = m_xy; b: m_x m_y = m_yx), so the moves by
    generators reach every move at that site, and the components, hence the
    least representatives, are the same. A move pastes only the columns it
    touches: for lam at chart c, the doubles and triples containing c; for b
    at double d, d and the triples with d as an edge. Every other column
    pastes identities around its stored value, which gives the value back
    once the axioms hold (alpha(e) = id, t(e) = e), so it is copied.
    """
    if not cm.is_finite:
        raise ConfigError("classification needs a finite crossed module")
    if not nerve.is_strict:
        # (j, i) would be an unknown of its own, with no law tying it to (i, j)
        reversed_ = [ov for ov in nerve.doubles + nerve.triples + nerve.quads
                     if len(set(ov)) == len(ov) and list(ov) != sorted(ov)]
        raise ConfigError("classification expects strictly increasing overlaps"
                          + (f", got {reversed_[0]}" if reversed_ else ""))
    G, H = cm.G, cm.H
    doubles = sorted(nerve.doubles)
    triples = sorted(nerve.triples)
    quads = sorted(nerve.quads)
    size = G.order ** len(doubles) * H.order ** len(triples)
    if size > CENSUS_BUDGET:
        raise BudgetExceeded(
            f"{size} candidate assignments exceed the budget {CENSUS_BUDGET}",
            size=size, budget=CENSUS_BUDGET)
    tab = cm.compiled()
    if tab.axiom_failures is None:  # the first census of this module decides
        tab.axiom_failures = [c.name for c in validate_crossed_module(cm).failures]
    if tab.axiom_failures:
        raise ConfigError(f"classification needs a crossed module: {cm.name} fails "
                          + ", ".join(tab.axiom_failures))

    layout = _StateLayout(tab, doubles, triples)
    codes = _cocycle_codes(tab, layout, quads)

    moves = _Moves(tab, layout,
                   [({i: x}, {}) for i in nerve.charts for x in tab.G.generators]
                   + [({}, {d: y}) for d in doubles for y in tab.H.generators])

    # targets[m, n] is the cocycle that move m takes cocycle n to; int32 holds
    # any index the budget admits, at half the memory of intp, and so does
    # the union-find's parent array
    targets = np.empty((len(moves.sites), len(codes)), dtype=np.int32)
    for block in _blocks(len(codes)):
        moved = _moved_codes(tab, layout, codes[block], moves)
        target = np.minimum(np.searchsorted(codes, moved), len(codes) - 1)
        if not np.array_equal(codes[target], moved):
            raise ConfigError(f"a change of trivializations takes a cocycle of "
                              f"{cm.name} outside the cocycles; the pair breaks "
                              "a crossed-module law")
        targets[:, block[0]:block[-1] + 1] = target
    parent = np.arange(len(codes), dtype=np.int32)
    for target in targets:
        _merge(parent, target)

    least = np.flatnonzero(parent == np.arange(len(codes)))
    gv, hv = layout.accessors(layout.digits(codes[least]))

    def encode(n):
        return {"g": {",".join(map(str, d)): int(gv(d)[n]) for d in doubles},
                "h": {",".join(map(str, t)): int(hv(t)[n]) for t in triples}}

    return {"cocycles": len(codes), "orbits": len(least),
            "representatives": [encode(n) for n in range(len(least))]}
