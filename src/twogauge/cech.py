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
one move at a time, over only the columns that move touches. It is one
routine in a gauge: the gauge fixes g = e inside blocks of charts and
h = e on some triples, and the census pastes only the gauge's slice of
the cocycles under the moves left. A coned nerve takes the cone gauge
(g = e on every double, h = e on every triple through the least chart)
when both groups list e first; its classes are orbits of G alone, as t(H)
acts trivially on ker t. Any other census takes no gauge, and every
cocycle is listed.

Overlap values may be constants (finite indices or matrices) or point
functions, evaluated at a nerve's sample points per overlap. One routine
samples, scores and witnesses every gluing law; an empty sample list skips it.
"""

import itertools
import math

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
    have data, and each value must be an element of its group (checked up
    front, all problems reported together): every value over a finite
    module, every constant over a matrix module (point functions are not
    sampled here). A reversed overlap such as (1, 0) is refused: no law
    would tie its g to g(0, 1)^-1, so the checks would pass whatever it
    holds. Degenerate overlaps such as (0, 0) and (0, 1, 1) are the unit
    laws' and are accepted. Unit correctors k default to the group identity,
    which is the normalized case.
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
        for part, values, group in (("g", self.g, cm.G), ("h", self.h, cm.H),
                                    ("k", self.k, cm.H)):
            for key, val in values.items():
                if cm.is_finite:
                    if not group.contains(val):
                        problems.append(f"{part} value {val!r} at {key} is not an "
                                        f"element of {group.name}")
                elif not (hasattr(val, "at") or callable(val) or group.contains(val)):
                    problems.append(f"{part} value at {key} is not an element of "
                                    f"{group.name}")
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
    sides. A NaN residual is the worst, so it fails the law at its point. No
    points: skipped. Sides that do not compose: failed at once.
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
            if r > worst or math.isnan(r):
                worst, worst_point, worst_pairs = r, p, pairs
        if math.isnan(worst):  # nothing is worse: the law fails at this point
            break
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


def _lookups(cm, lam, b):
    # lam and b dicts as functions, the identity wherever they leave a site out
    return lambda i: lam.get(i, cm.G.identity), lambda pair: b.get(pair, cm.H.identity)


def _transformed_double(cm, gv, lam, bv, pair):
    i, j = pair
    G = cm.G
    return G.mul(G.mul(G.mul(lam(i), gv(pair)), cm.t(bv(pair))), G.inv(lam(j)))


def _beta(cm, gv, lam, bv, pair):
    # the 2-cell of b over a double: from lam_i g_ij lam_j^-1 to the new g_ij
    i, j = pair
    G = cm.G
    src = G.mul(G.mul(lam(i), gv(pair)), G.inv(lam(j)))
    return _cell(cm, src, cm.alpha(lam(j), bv(pair)))


def _framed(cm, lam, i, cell, k):
    # the identity on lam_i, then `cell`, then the identity on lam_k^-1
    identity = _cells(cm).identity
    return identity(cm, lam(i)).horizontal(cell).horizontal(identity(cm, cm.G.inv(lam(k))))


def _transformed_triple(cm, gv, hv, lam, bv, tri):
    """New h over a triple, as the pasting around the changed squares."""
    i, j, k = tri
    X = _beta(cm, gv, lam, bv, (i, j)).horizontal(_beta(cm, gv, lam, bv, (j, k)))
    mid = _framed(cm, lam, i, _cell(cm, cm.G.mul(gv((i, j)), gv((j, k))), hv(tri)), k)
    comp = X.vertical_inverse().vertical(mid).vertical(_beta(cm, gv, lam, bv, (i, k)))
    return _unbridge(cm, comp)


def _transformed_unit(cm, gv, kv, lam, bv, i):
    mid = _framed(cm, lam, i, _cell(cm, gv((i, i)), kv(i)), i)
    comp = _beta(cm, gv, lam, bv, (i, i)).vertical_inverse().vertical(mid)
    return _unbridge(cm, comp)


def coboundary_act(data, lam=None, b=None, check=True):
    """Change of local trivializations: g'_ij = lam_i g_ij t(b_ij) lam_j^-1.

    h and k transform by the pasting of the corresponding diagrams. Finite
    mode only. A lam on a chart or a b on a double that the nerve does not
    declare is refused, as `GluingCocycle` refuses such data. With
    check=True the result is re-validated; a failure there would mean the
    pasting itself is broken, so it raises.
    """
    cm = data.cm
    if not cm.is_finite:
        raise ConfigError("coboundary action is implemented for finite mode")
    lam = dict(lam) if lam else {}
    b = {tuple(key): val for key, val in b.items()} if b else {}
    problems = ([f"lam value for unknown chart {key!r}" for key in lam
                 if key not in set(data.nerve.charts)]
                + [f"b value for undeclared double {key}" for key in b
                   if key not in set(data.nerve.doubles)])
    if problems:
        raise ConfigError(problems)
    lam_at, b_at = _lookups(cm, lam, b)
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
    significant, so code order is the lexicographic order of the states. A
    layout may leave overlaps out: they hold the identity in every state, as
    the overlaps a gauge fixes do.
    """

    def __init__(self, tab, doubles, triples):
        self.doubles = doubles
        self.triples = triples
        self.identities = tab.G.identity, tab.H.identity
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
        """(gv, hv): a double's and a triple's column of the states, or the
        identity for an overlap the layout leaves out."""
        g_id, h_id = self.identities
        return (lambda d: columns[self.d_index[d]] if d in self.d_index else g_id,
                lambda t: columns[self.t_index[t]] if t in self.t_index else h_id)


def _cocycle_codes(tab, layout, quads):
    """Codes of all normalized cocycles, in increasing (lexicographic) order.

    g runs over every assignment; h over the product of each triangle's
    t-preimage coset, listed in increasing element order; the survivors of
    the tetrahedron pastings are kept. Both loops run in blocks of states.
    Overlaps the layout leaves out hold the identity, so a layout of a
    gauge's free columns lists its slice.
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
        cosets = [np.broadcast_to(G.mul(G.inv(G.mul(gv((i, j)), gv((j, k)))), gv((i, k))),
                                  g_codes.shape)
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


def _moved_codes(tab, layout, codes, sites):
    """Codes of the states reached from `codes` by each move of `sites`.

    `sites` lists the moves as (lam, bmap) pairs, lam mapping charts to G
    elements and bmap doubles to H elements; row m of the result holds the
    codes after move m. The layout's columns are decoded once, and an
    overlap it leaves out reads as the identity. A move pastes only the
    columns it touches: a double when lam holds one of its charts or bmap
    the double, a triple when lam holds one of its charts or bmap one of
    its edges. Any other column would paste identities around its value and
    give it back once the axioms hold (alpha(e) = id, t(e) = e).
    """
    columns = layout.digits(codes)
    gv, hv = layout.accessors(columns)
    overlaps = [(n, overlap, [overlap] if len(overlap) == 2 else _faces(overlap))
                for n, overlap in enumerate(layout.doubles + layout.triples)]
    moved = np.repeat(codes[np.newaxis], len(sites), axis=0)
    for row, (lam, bmap) in zip(moved, sites):
        lam_at, b_at = _lookups(tab, lam, bmap)
        for n, overlap, edges in overlaps:
            if lam.keys().isdisjoint(overlap) and bmap.keys().isdisjoint(edges):
                continue
            digit = (_transformed_double(tab, gv, lam_at, b_at, overlap) if len(overlap) == 2
                     else _transformed_triple(tab, gv, hv, lam_at, b_at, overlap))
            row += (digit - columns[n]) * layout.weights[n]
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


def _least_of_classes(tab, layout, codes, sites):
    """Indices into `codes` of the least member of each class under the moves
    of `sites`, (lam, bmap) pairs as `_moved_codes` takes them.

    Each move is applied on its own to each block of states (`_moved_codes`)
    and its moved codes are mapped back to indices of `codes`, one row of
    targets per move. The classes are the components of those maps
    (union-find, one merge per move). Components do not depend on the order
    of the merges, so they do not depend on the block size. A move that
    takes a state outside `codes` raises ConfigError.
    """
    # targets[m, n] is the state that move m takes state n to; int32 holds
    # any index the budget admits, at half the memory of intp, and so does
    # the union-find's parent array
    targets = np.empty((len(sites), len(codes)), dtype=np.int32)
    for block in _blocks(len(codes)):
        moved = _moved_codes(tab, layout, codes[block], sites)
        target = np.minimum(np.searchsorted(codes, moved), len(codes) - 1)
        if not np.array_equal(codes[target], moved):
            raise ConfigError(f"a change of trivializations takes a cocycle of {tab.name} "
                              "outside the cocycles; the pair breaks a crossed-module law")
        targets[:, block[0]:block[-1] + 1] = target
    parent = np.arange(len(codes), dtype=np.int32)
    for target in targets:
        _merge(parent, target)
    return np.flatnonzero(parent == np.arange(len(codes)))


def _census(layout, doubles, triples, cocycles, least):
    """The census of `cocycles` cocycles whose classes' least codes are `least`."""
    gv, hv = layout.accessors(layout.digits(least))
    g = {",".join(map(str, d)): np.full(least.shape, gv(d)).tolist() for d in doubles}
    h = {",".join(map(str, t)): np.full(least.shape, hv(t)).tolist() for t in triples}
    return {"cocycles": cocycles, "orbits": len(least),
            "representatives": [{"g": {key: v[n] for key, v in g.items()},
                                 "h": {key: v[n] for key, v in h.items()}}
                                for n in range(len(least))]}


def _cone_gauge(nerve):
    """The cone gauge of a strict coned nerve as (blocks, fixing), else no gauge.

    A nerve is coned when its least chart c0 shares a double with every
    other chart (on a strict nerve, when charts - 1 doubles hold c0) and
    every double (j, k) away from c0 has the cone triple (c0, j, k). Then
    one block holds every chart and the cone triples are fixing; any other
    nerve gets one block per chart and no fixing triple.
    """
    charts = nerve.charts
    if charts:
        c0 = min(charts)
        cone = [(c0,) + d for d in nerve.doubles if c0 not in d]
        if (len(nerve.doubles) - len(cone) == len(charts) - 1
                and set(nerve.triples).issuperset(cone)):
            return [charts], cone
    return [[c] for c in charts], []


def _gauge_census(tab, nerve, blocks, fixing=()):
    """The census of a strict nerve in a gauge, from the gauge's slice.

    The gauge is data: changes of trivialization set g = e on each double
    inside a chart block of `blocks` and h = e on each triple of `fixing`.
    The slice is the cocycles coded over the free columns alone, g on each
    double between blocks and h on each triple that is not fixing, with the
    identity in every other column (`_cocycle_codes`). The moves, lam = x on
    each block for each generator x of G, then b = y on each free double for
    each generator y of H, are (lam, bmap) sites, each applied on its own to
    the columns it touches (`_moved_codes`), and each class, a component of
    the moves (`_least_of_classes`), is given by its least member. The
    gauge's own moves act freely, so there are |slice| |G|^(charts - blocks)
    |H|^(doubles - free - (charts - blocks)) cocycles. Only two gauges are
    proven, and `classify_finite` passes only these:

    No gauge: one block per chart, no fixing triple. The slice is every
    cocycle and the moves are single-site. Generators suffice: the moves at
    one site compose as a group action (lam: m_x m_y = m_xy; b: m_x m_y =
    m_yx), so the moves by generators reach every move at that site, and the
    components, hence the least representatives, are the same.

    The cone gauge (`_cone_gauge`): one block of every chart, fixing the
    cone triples. With c0 the least chart, lam_j sets g = e on each star
    double (c0, j), then b on each double (j, k) away from c0 sets h = e on
    its cone triple (c0, j, k); the triangle laws then force g = e on every
    double and h into ker t on each free triple, one without c0. The classes
    are the orbits of G alone. The other moves that keep the slice are
    composites: b(c0, j) = y, lam_j = t(y), and b = y on every other double
    into j and y^-1 on every double out of j. Each leaves every state of the
    slice where it is: there g = e and each free h lies in ker t, which by
    Peiffer is central in H and fixed by alpha(t(y)), so pasting the
    composite on a triple through j gives its h back. The free columns come
    last in the full layout and every other column of the slice holds the
    identity, which is index 0 when `classify_finite` takes this gauge, so
    each class's least member lies in the slice, and the slice orders its
    states as the full layout does.

    Any other gauge, a spanning tree of doubles say, needs its own proof
    that its slice holds each class's least member and that its moves join
    each class, before it is passed in. A moved state outside the slice
    raises ConfigError.
    """
    block_of = {c: n for n, block in enumerate(blocks) for c in block}
    fixed = set(fixing)
    doubles, triples = sorted(nerve.doubles), sorted(nerve.triples)
    free = [d for d in doubles if block_of[d[0]] != block_of[d[1]]]
    layout = _StateLayout(tab, free, [t for t in triples if t not in fixed])
    codes = _cocycle_codes(tab, layout, sorted(nerve.quads))
    sites = ([({c: x for c in block}, {}) for block in blocks for x in tab.G.generators]
             + [({}, {d: y}) for d in free for y in tab.H.generators])
    least = _least_of_classes(tab, layout, codes, sites)
    gauged = len(nerve.charts) - len(blocks)
    cocycles = (len(codes) * tab.G.order ** gauged
                * tab.H.order ** (len(doubles) - len(free) - gauged))
    return _census(layout, doubles, triples, cocycles, codes[least])


def classify_finite(cm, nerve):
    """Count normalized cocycles and find their coboundary orbits.

    Normalized means k_i = 1 with data only on strictly increasing overlaps.
    States are ordered lexicographically in (overlap order, element index);
    orbit representatives are the lexicographically least states, so the
    census is deterministic. Refuses when |G|^#doubles * |H|^#triples
    exceeds CENSUS_BUDGET, and refuses a pair (G, H, t, alpha) that fails
    the crossed-module axioms. The axioms are checked on the first census of
    a module object; the verdict, failing or not, is kept with its compiled
    tables (`CompiledModule.axiom_failures`) for every later census.

    The census (`_gauge_census`) runs in the cone gauge (`_cone_gauge`) when
    both identities are index 0, and with no gauge otherwise.
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
    size = G.order ** len(nerve.doubles) * H.order ** len(nerve.triples)
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
    # the slice holds the least member of each class only when e is index 0
    if tab.G.identity == tab.H.identity == 0:
        return _gauge_census(tab, nerve, *_cone_gauge(nerve))
    return _gauge_census(tab, nerve, [[c] for c in nerve.charts])
