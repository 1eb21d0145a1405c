"""2-cells over a crossed module: pasting operations and coherence checks.

A cell is a pair (g, h) with source g and target t(h) g. Vertical pasting
stacks cells along a shared 1-arrow; horizontal pasting runs them side by
side. The interchange identity relating the two is equivalent to the Peiffer
axiom, so `check_interchange` doubles as an independent axiom probe.

CellBatch pastes many cells of a finite module at once over its compiled
index tables, case by case with TwoCell's conventions. The exhaustive checks
run on it in blocks of `crossed.BLOCK` cases, in lexicographic case order,
so their memory stays bounded and their witnesses are the ones a
case-by-case loop would find first.
"""

from functools import partial

from .errors import CompositionError, GroupDomainError
from .report import NO_SAMPLES, ValidationReport
from .crossed import EXHAUSTIVE_INTERCHANGE_BUDGET, _exhaustive_failures

import numpy as np

# how far the two sides of a sampled interchange case may differ
SAMPLED_INTERCHANGE_TOL = 1e-9


class TwoCell:
    """Pair (g, h): a 2-arrow from g to t(h) g."""

    __slots__ = ("cm", "g", "h")

    def __init__(self, cm, g, h):
        self.cm = cm
        self.g = cm.G.renormalize(cm.G._check(g))
        self.h = cm.H.renormalize(cm.H._check(h))

    @classmethod
    def identity(cls, cm, g):
        return cls(cm, g, cm.H.identity)

    @property
    def source(self):
        return self.g

    @property
    def target(self):
        return self.cm.G.mul(self.cm.t(self.h), self.g)

    def vertical(self, other, tol=None):
        """Paste `other` on top: defined when other.source == self.target.

        `tol` loosens the matching check for numerically produced cells.
        """
        if other.cm is not self.cm:
            raise CompositionError("cells live over different crossed modules")
        matches = (self.cm.G.eq(other.source, self.target) if tol is None
                   else self.cm.G.eq(other.source, self.target, tol))
        if not matches:
            raise CompositionError("vertical pasting needs matching 1-arrows",
                                   source=self.cm.G.label(other.source),
                                   target=self.cm.G.label(self.target))
        return TwoCell(self.cm, self.g, self.cm.H.mul(other.h, self.h))

    def horizontal(self, other):
        """Side-by-side pasting: (g1, h1) then (g2, h2) gives
        (g1 g2, h1 * alpha(g1)(h2))."""
        if other.cm is not self.cm:
            raise CompositionError("cells live over different crossed modules")
        cm = self.cm
        return TwoCell(cm, cm.G.mul(self.g, other.g),
                       cm.H.mul(self.h, cm.alpha(self.g, other.h)))

    def vertical_inverse(self):
        cm = self.cm
        return TwoCell(cm, self.target, cm.H.inv(self.h))

    def horizontal_inverse(self):
        cm = self.cm
        gi = cm.G.inv(self.g)
        return TwoCell(cm, gi, cm.alpha(gi, cm.H.inv(self.h)))

    def whisker_left(self, g0):
        """Pre-compose with the identity cell on g0."""
        return TwoCell.identity(self.cm, g0).horizontal(self)

    def whisker_right(self, g0):
        """Post-compose with the identity cell on g0."""
        return self.horizontal(TwoCell.identity(self.cm, g0))

    def eq(self, other, tol=None):
        cm = self.cm
        if tol is None:
            return cm.G.eq(self.g, other.g) and cm.H.eq(self.h, other.h)
        return cm.G.eq(self.g, other.g, tol) and cm.H.eq(self.h, other.h, tol)

    def label(self):
        return f"({self.cm.G.label(self.g)}, {self.cm.H.label(self.h)})"

    def __repr__(self):
        return f"<TwoCell {self.label()}>"


class CellBatch:
    """Many 2-cells (g, h) over one compiled finite module, as index arrays.

    `cm` is a module's `compiled()` form; g and h are ints or integer arrays
    that broadcast together, one case per position. Every operation follows
    TwoCell's conventions case by case, and `vertical` raises TwoCell's
    CompositionError for the first case whose 1-arrows do not match.
    """

    __slots__ = ("cm", "g", "h")

    def __init__(self, cm, g, h):
        self.cm = cm
        self.g = np.asarray(g)
        self.h = np.asarray(h)

    @classmethod
    def identity(cls, cm, g):
        return cls(cm, g, cm.H.identity)

    @property
    def source(self):
        return self.g

    @property
    def target(self):
        return self.cm.G.mul(self.cm.t(self.h), self.g)

    def vertical(self, other, tol=None):
        """Paste `other` on top: defined where other.source == self.target.

        `tol` is accepted for TwoCell's signature; finite cells match exactly.
        """
        if other.cm is not self.cm:
            raise CompositionError("cells live over different crossed modules")
        source, target = np.broadcast_arrays(other.source, self.target)
        bad = np.flatnonzero(source != target)
        if bad.size:
            first = bad[0]
            raise CompositionError("vertical pasting needs matching 1-arrows",
                                   source=self.cm.G.label(source.flat[first]),
                                   target=self.cm.G.label(target.flat[first]))
        return CellBatch(self.cm, self.g, self.cm.H.mul(other.h, self.h))

    def horizontal(self, other):
        """Side-by-side pasting: (g1, h1) then (g2, h2) gives
        (g1 g2, h1 * alpha(g1)(h2))."""
        if other.cm is not self.cm:
            raise CompositionError("cells live over different crossed modules")
        cm = self.cm
        return CellBatch(cm, cm.G.mul(self.g, other.g),
                         cm.H.mul(self.h, cm.alpha(self.g, other.h)))

    def vertical_inverse(self):
        return CellBatch(self.cm, self.target, self.cm.H.inv(self.h))

    def whisker_left(self, g0):
        """Pre-compose with the identity cells on g0."""
        return CellBatch.identity(self.cm, g0).horizontal(self)

    def whisker_right(self, g0):
        """Post-compose with the identity cells on g0."""
        return self.horizontal(CellBatch.identity(self.cm, g0))

    def eq(self, other, tol=None):
        """Boolean array: where the two batches hold the same cell."""
        return (self.g == other.g) & (self.h == other.h)

    def label(self, case):
        """TwoCell's label of the cell at flat position `case`."""
        g, h = np.broadcast_arrays(self.g, self.h)
        return f"({self.cm.G.label(g.flat[case])}, {self.cm.H.label(h.flat[case])})"

    def __repr__(self):
        return f"<CellBatch {self.cm.name} shape={np.broadcast(self.g, self.h).shape}>"


def _interchange_sides(cell, cm, g1, g2, h1, h2, h3, h4):
    """Both pasting orders of the 2x2 diagram built from the six parameters.

    `cell` is TwoCell (one case) or CellBatch (cm compiled, index arrays).
    """
    f1 = cell(cm, g1, h1)
    f2 = cell(cm, f1.target, h2)
    f3 = cell(cm, g2, h3)
    f4 = cell(cm, f3.target, h4)
    lhs = f1.vertical(f2).horizontal(f3.vertical(f4))
    rhs = f1.horizontal(f3).vertical(f2.horizontal(f4))
    return lhs, rhs


def _interchange_case(cm, g1, g2, h1, h2, h3, h4):
    lhs, rhs = _interchange_sides(TwoCell, cm, g1, g2, h1, h2, h3, h4)
    return lhs.eq(rhs, SAMPLED_INTERCHANGE_TOL)


def _interchange_holds(tab, g1, g2, h1, h2, h3, h4):
    """Boolean array: the interchange law on each case, over compiled tables."""
    lhs, rhs = _interchange_sides(CellBatch, tab, g1, g2, h1, h2, h3, h4)
    return lhs.eq(rhs)


def check_interchange(cm, mode="auto", samples=200, seed=42):
    """Interchange law over a 2x2 pasting grid.

    Exhaustive when |G|^2 |H|^4 <= 10^8 (finite pairs, batched over the
    compiled tables); otherwise `samples` random cases, whose two sides must
    agree within SAMPLED_INTERCHANGE_TOL. Failure witnesses name the six
    generating elements of the first failing case.
    """
    G, H = cm.G, cm.H
    rep = ValidationReport(f"interchange: {cm.name}")
    exhaustive = (cm.is_finite
                  and G.order ** 2 * H.order ** 4 <= EXHAUSTIVE_INTERCHANGE_BUDGET)
    if mode == "exhaustive" and not exhaustive:
        raise GroupDomainError("exhaustive interchange not available for this pair")
    if mode == "sampled":
        exhaustive = False
    if not exhaustive and samples < 1:
        rep.skip("interchange", NO_SAMPLES)
        return rep

    if exhaustive:
        total = G.order ** 2 * H.order ** 4
        bad, first = _exhaustive_failures(partial(_interchange_holds, cm.compiled()),
                                          (G.order,) * 2 + (H.order,) * 4)
    else:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        cases = ((G.random(rng), G.random(rng), H.random(rng),
                  H.random(rng), H.random(rng), H.random(rng))
                 for _ in range(samples))
        total = samples
        fails = [case for case in cases if not _interchange_case(cm, *case)]
        bad, first = len(fails), (fails[0] if fails else None)

    worst = None
    if first is not None:
        g1, g2, h1, h2, h3, h4 = first
        worst = {"g1": G.label(g1), "g2": G.label(g2),
                 "h1": H.label(h1), "h2": H.label(h2),
                 "h3": H.label(h3), "h4": H.label(h4)}
    rep.add("interchange", bad == 0, witness=worst,
            detail=f"{total - bad}/{total} cases"
                   + (" (exhaustive)" if exhaustive else " (sampled)"))
    return rep


def _eckmann_hilton_sides(cell, cm, h1, h2):
    """Vertical and horizontal pastings of (1, h1) and (1, h2).

    `cell` is TwoCell (one case) or CellBatch (cm compiled, index arrays).
    """
    a = cell(cm, cm.G.identity, h1)
    b = cell(cm, cm.G.identity, h2)
    return a.vertical(b), a.horizontal(b)


def _eckmann_hilton_holds(cell, cm, h1, h2):
    vert, horiz = _eckmann_hilton_sides(cell, cm, h1, h2)
    return vert.eq(horiz)


def eckmann_hilton_probe(cm, samples=100, seed=42):
    """With trivial G the two pastings force H to commute.

    Vertical pasting of (1, h1) then (1, h2) yields (1, h2 h1); horizontal
    yields (1, h1 h2). The probe reports whether they agree, with a
    noncommuting witness pair when they do not.
    """
    if cm.G.kind == "finite":
        if cm.G.order != 1:
            raise GroupDomainError("probe needs a trivial 1-arrow group")
    elif not cm.G.trivial:
        raise GroupDomainError("probe needs a trivial 1-arrow group")
    H = cm.H
    rep = ValidationReport(f"eckmann-hilton: {cm.name}")
    if cm.is_finite:
        _, first = _exhaustive_failures(
            partial(_eckmann_hilton_holds, CellBatch, cm.compiled()), (H.order, H.order))
    elif samples < 1:
        rep.skip("pastings-agree", NO_SAMPLES)
        return rep
    else:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        pairs = [(H.random(rng), H.random(rng)) for _ in range(samples)]
        first = next((pair for pair in pairs
                      if not _eckmann_hilton_holds(TwoCell, cm, *pair)), None)
    witness = None
    if first is not None:
        h1, h2 = first
        vert, horiz = _eckmann_hilton_sides(TwoCell, cm, h1, h2)
        witness = {"h1": H.label(h1), "h2": H.label(h2),
                   "vertical": vert.label(), "horizontal": horiz.label()}
    commutes = witness is None
    rep.add("pastings-agree", commutes, witness=witness,
            detail="vertical (1, h2 h1) vs horizontal (1, h1 h2)")
    return rep
