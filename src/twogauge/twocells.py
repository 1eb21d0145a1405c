"""2-cells over a crossed module: pasting operations and coherence checks.

A cell is a pair (g, h) with source g and target t(h) g. Vertical pasting
stacks cells along a shared 1-arrow; horizontal pasting runs them side by
side. The interchange identity relating the two is equivalent to the Peiffer
axiom, so `check_interchange` doubles as an independent axiom probe.

TwoCell pastes one membership-checked cell and is the scalar reference.
CellBatch pastes many cells, over a finite module's compiled tables or over
matrix stacks; both take the pasting conventions from one base class. Every
check here, exhaustive or sampled, runs on CellBatch in blocks of
`crossed.BLOCK` cases in case order, so its memory stays bounded and its
witnesses are the ones a case-by-case loop finds first.
"""

from functools import partial

from .errors import CompositionError, GroupDomainError
from .report import NO_SAMPLES, ValidationReport
from .crossed import (EXHAUSTIVE_INTERCHANGE_BUDGET, _failures, _index_blocks,
                      _random_blocks, _witness)

import numpy as np


class _Cells:
    """The pasting conventions TwoCell and CellBatch share, written once.

    Results are built with `type(self)`, so one cell gives a cell and a batch
    gives a batch.
    """

    __slots__ = ("cm", "g", "h")

    @classmethod
    def identity(cls, cm, g):
        return cls(cm, g, cm.H.identity)

    @property
    def source(self):
        return self.g

    @property
    def target(self):
        return self.cm.G.mul(self.cm.t(self.h), self.g)

    def horizontal(self, other):
        """Side-by-side pasting: (g1, h1) then (g2, h2) gives
        (g1 g2, h1 * alpha(g1)(h2))."""
        if other.cm is not self.cm:
            raise CompositionError("cells live over different crossed modules")
        cm = self.cm
        return type(self)(cm, cm.G.mul(self.g, other.g),
                          cm.H.mul(self.h, cm.alpha(self.g, other.h)))

    def vertical_inverse(self):
        return type(self)(self.cm, self.target, self.cm.H.inv(self.h))

    def whisker_left(self, g0):
        """Pre-compose with the identity cell on g0."""
        return self.identity(self.cm, g0).horizontal(self)

    def whisker_right(self, g0):
        """Post-compose with the identity cell on g0."""
        return self.horizontal(self.identity(self.cm, g0))


class TwoCell(_Cells):
    """Pair (g, h): a 2-arrow from g to t(h) g."""

    __slots__ = ()

    def __init__(self, cm, g, h):
        self.cm = cm
        self.g = cm.G.renormalize(cm.G._check(g))
        self.h = cm.H.renormalize(cm.H._check(h))

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

    def horizontal_inverse(self):
        cm = self.cm
        gi = cm.G.inv(self.g)
        return TwoCell(cm, gi, cm.alpha(gi, cm.H.inv(self.h)))

    def eq(self, other, tol=None):
        cm = self.cm
        if tol is None:
            return cm.G.eq(self.g, other.g) and cm.H.eq(self.h, other.h)
        return cm.G.eq(self.g, other.g, tol) and cm.H.eq(self.h, other.h, tol)

    def label(self):
        return f"({self.cm.G.label(self.g)}, {self.cm.H.label(self.h)})"

    def __repr__(self):
        return f"<TwoCell {self.label()}>"


class CellBatch(_Cells):
    """Many 2-cells (g, h) at once, one case per position along a leading axis.

    `cm` is a finite module's `compiled()` form, with g and h index arrays,
    or a matrix module, with g and h (N, n, n) stacks; either may also be a
    single element shared by every case. Every operation follows TwoCell's
    conventions case by case, and `vertical` raises TwoCell's
    CompositionError for the first case whose 1-arrows do not match.
    """

    __slots__ = ()

    def __init__(self, cm, g, h):
        self.cm = cm
        self.g = np.asarray(g)
        self.h = np.asarray(h)

    def vertical(self, other, tol=None):
        """Paste `other` on top: defined where other.source == self.target.

        `tol` is accepted for TwoCell's signature; arrows match within `G.eq`.
        """
        if other.cm is not self.cm:
            raise CompositionError("cells live over different crossed modules")
        G = self.cm.G
        matches = np.asarray(G.eq(other.source, self.target))
        bad = np.flatnonzero(~matches)
        if bad.size:
            source, target = other.source, self.target
            if matches.ndim:  # one bool per case: name the first case's arrows
                source, target = np.broadcast_arrays(source, target)
                source, target = source[bad[0]], target[bad[0]]
            raise CompositionError("vertical pasting needs matching 1-arrows",
                                   source=G.label(source), target=G.label(target))
        return CellBatch(self.cm, self.g, self.cm.H.mul(other.h, self.h))

    def eq(self, other, tol=None):
        """Where the two batches hold the same cell: a bool per case.

        `tol` is accepted for TwoCell's signature; cells compare within `eq`.
        """
        return self.cm.G.eq(self.g, other.g) & self.cm.H.eq(self.h, other.h)

    def label(self, case):
        """TwoCell's label of the cell at position `case` of the case axis."""
        g, h = (group.label(x[case] if x.ndim > np.ndim(group.identity) else x)
                for group, x in ((self.cm.G, self.g), (self.cm.H, self.h)))
        return f"({g}, {h})"

    def __repr__(self):
        return f"<CellBatch {self.cm.name} shape={np.shape(self.eq(self))}>"


def _interchange_sides(cell, cm, g1, g2, h1, h2, h3, h4):
    """Both pasting orders of the 2x2 diagram built from the six parameters.

    `cell` is TwoCell (one case) or CellBatch (many).
    """
    f1 = cell(cm, g1, h1)
    f2 = cell(cm, f1.target, h2)
    f3 = cell(cm, g2, h3)
    f4 = cell(cm, f3.target, h4)
    lhs = f1.vertical(f2).horizontal(f3.vertical(f4))
    rhs = f1.horizontal(f3).vertical(f2.horizontal(f4))
    return lhs, rhs


def _interchange_holds(cm, g1, g2, h1, h2, h3, h4):
    """Boolean array: the interchange law on each case of a batch."""
    lhs, rhs = _interchange_sides(CellBatch, cm, g1, g2, h1, h2, h3, h4)
    return lhs.eq(rhs)


def check_interchange(cm, mode="auto", samples=200, seed=42):
    """Interchange law over a 2x2 pasting grid.

    Exhaustive when |G|^2 |H|^4 <= 10^8 (finite pairs, over the compiled
    tables); otherwise `samples` random cases, whose two sides must agree
    within the groups' `eq` tolerance. Failure witnesses name the six
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
        blocks = _index_blocks((G.order,) * 2 + (H.order,) * 4)
    else:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        total = samples
        blocks = _random_blocks((G, G, H, H, H, H), rng, samples)
    mod = cm.compiled() if cm.is_finite else cm
    bad, first = _failures(partial(_interchange_holds, mod), blocks)
    worst = None if first is None else _witness(G, H, "g1 g2 h1 h2 h3 h4", first)
    rep.add("interchange", bad == 0, witness=worst,
            detail=f"{total - bad}/{total} cases"
                   + (" (exhaustive)" if exhaustive else " (sampled)"))
    return rep


def _eckmann_hilton_sides(cell, cm, h1, h2):
    """Vertical and horizontal pastings of (1, h1) and (1, h2).

    `cell` is TwoCell (one case) or CellBatch (many).
    """
    a = cell(cm, cm.G.identity, h1)
    b = cell(cm, cm.G.identity, h2)
    return a.vertical(b), a.horizontal(b)


def _eckmann_hilton_holds(cm, h1, h2):
    vert, horiz = _eckmann_hilton_sides(CellBatch, cm, h1, h2)
    return vert.eq(horiz)


def eckmann_hilton_probe(cm, samples=100, seed=42):
    """With trivial G the two pastings force H to commute.

    Vertical pasting of (1, h1) then (1, h2) yields (1, h2 h1); horizontal
    yields (1, h1 h2). The probe reports whether they agree, with a
    noncommuting witness pair when they do not: over every pair of a finite
    H, or over `samples` random pairs.
    """
    if cm.G.kind == "finite":
        if cm.G.order != 1:
            raise GroupDomainError("probe needs a trivial 1-arrow group")
    elif not cm.G.trivial:
        raise GroupDomainError("probe needs a trivial 1-arrow group")
    H = cm.H
    rep = ValidationReport(f"eckmann-hilton: {cm.name}")
    if cm.is_finite:
        mod, blocks = cm.compiled(), _index_blocks((H.order, H.order))
    elif samples < 1:
        rep.skip("pastings-agree", NO_SAMPLES)
        return rep
    else:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        mod = cm
        blocks = _random_blocks((H, H), rng, samples)
    _, first = _failures(partial(_eckmann_hilton_holds, mod), blocks)
    witness = None
    if first is not None:
        vert, horiz = _eckmann_hilton_sides(TwoCell, cm, *first)
        witness = {**_witness(cm.G, H, "h1 h2", first),
                   "vertical": vert.label(), "horizontal": horiz.label()}
    commutes = witness is None
    rep.add("pastings-agree", commutes, witness=witness,
            detail="vertical (1, h2 h1) vs horizontal (1, h1 h2)")
    return rep
