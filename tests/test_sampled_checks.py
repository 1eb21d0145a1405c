"""Sampled axiom, interchange and Eckmann-Hilton checks against per-case loops.

The oracles below are the loops the sampled checks ran before they were
batched: the same random draws, then one scalar predicate or one TwoCell
diagram per case, compared with each group's `eq` at its default tolerance.
Every comparison is of whole reports, or of the error a run raises.
"""

import itertools

import numpy as np
import pytest

from twogauge.crossed import (CrossedModule, crossed_module, peiffer_violating_fixture,
                              validate_crossed_module)
from twogauge.errors import CompositionError, GroupDomainError, TwoGaugeError
from twogauge.groups import SU2, TRIVIAL, U1
from twogauge.report import NO_SAMPLES, ValidationReport
from twogauge.twocells import (CellBatch, TwoCell, _eckmann_hilton_sides,
                               _interchange_sides, check_interchange, eckmann_hilton_probe)


def _rng(seed):
    return np.random.default_rng(np.random.SeedSequence(seed))


def scalar_validate(cm, samples, seed):
    """validate_crossed_module(mode="sampled"), one tuple at a time."""
    G, H = cm.G, cm.H
    t, alpha = cm.t, cm.alpha
    rng = _rng(seed)
    pairs_hh = [(H.random(rng), H.random(rng)) for _ in range(samples)]
    pairs_gh = [(G.random(rng), H.random(rng)) for _ in range(samples)]
    triples = [(G.random(rng), H.random(rng), H.random(rng)) for _ in range(samples)]
    gg_h = [(G.random(rng), G.random(rng), H.random(rng)) for _ in range(samples)]
    singles = [(h,) for h, _ in pairs_hh]
    checks = [
        ("t-homomorphism", pairs_hh,
         lambda h1, h2: G.eq(t(H.mul(h1, h2)), G.mul(t(h1), t(h2))),
         lambda h1, h2: {"h1": H.label(h1), "h2": H.label(h2)}),
        ("alpha-identity", singles,
         lambda h: H.eq(alpha(G.identity, h), h),
         lambda h: {"h": H.label(h)}),
        ("alpha-automorphism", triples,
         lambda g, h1, h2: H.eq(alpha(g, H.mul(h1, h2)), H.mul(alpha(g, h1), alpha(g, h2))),
         lambda g, h1, h2: {"g": G.label(g), "h1": H.label(h1), "h2": H.label(h2)}),
        ("alpha-action", gg_h,
         lambda g1, g2, h: H.eq(alpha(G.mul(g1, g2), h), alpha(g1, alpha(g2, h))),
         lambda g1, g2, h: {"g1": G.label(g1), "g2": G.label(g2), "h": H.label(h)}),
        ("equivariance", pairs_gh,
         lambda g, h: G.eq(t(alpha(g, h)), G.conj(g, t(h))),
         lambda g, h: {"g": G.label(g), "h": H.label(h)}),
        ("peiffer", pairs_hh,
         lambda h1, h2: H.eq(alpha(t(h1), h2), H.conj(h1, h2)),
         lambda h1, h2: {"h1": H.label(h1), "h2": H.label(h2)}),
    ]
    rep = ValidationReport(f"crossed module axioms: {cm.name}")
    for name, cases, holds, describe in checks:
        if not cases:
            rep.skip(name, NO_SAMPLES)
            continue
        bad = [case for case in cases if not holds(*case)]
        rep.add(name, not bad, witness=describe(*bad[0]) if bad else None,
                detail=f"{len(bad)} violations" if bad else None)
    return rep


def scalar_interchange(cm, samples, seed):
    """check_interchange(mode="sampled"), one TwoCell diagram per case."""
    G, H = cm.G, cm.H
    rep = ValidationReport(f"interchange: {cm.name}")
    if samples < 1:
        rep.skip("interchange", NO_SAMPLES)
        return rep
    rng = _rng(seed)
    cases = ((G.random(rng), G.random(rng), H.random(rng),
              H.random(rng), H.random(rng), H.random(rng)) for _ in range(samples))
    fails = []
    for case in cases:
        lhs, rhs = _interchange_sides(TwoCell, cm, *case)
        if not lhs.eq(rhs):
            fails.append(case)
    worst = None
    if fails:
        g1, g2, h1, h2, h3, h4 = fails[0]
        worst = {"g1": G.label(g1), "g2": G.label(g2), "h1": H.label(h1),
                 "h2": H.label(h2), "h3": H.label(h3), "h4": H.label(h4)}
    rep.add("interchange", not fails, witness=worst,
            detail=f"{samples - len(fails)}/{samples} cases (sampled)")
    return rep


def scalar_eckmann_hilton(cm, samples, seed):
    """eckmann_hilton_probe on a matrix module, one pair of TwoCells at a time."""
    H = cm.H
    rep = ValidationReport(f"eckmann-hilton: {cm.name}")
    if samples < 1:
        rep.skip("pastings-agree", NO_SAMPLES)
        return rep
    rng = _rng(seed)
    pairs = [(H.random(rng), H.random(rng)) for _ in range(samples)]
    witness = None
    for h1, h2 in pairs:
        vert, horiz = _eckmann_hilton_sides(TwoCell, cm, h1, h2)
        if not vert.eq(horiz):
            witness = {"h1": H.label(h1), "h2": H.label(h2),
                       "vertical": vert.label(), "horizontal": horiz.label()}
            break
    rep.add("pastings-agree", witness is None, witness=witness,
            detail="vertical (1, h2 h1) vs horizontal (1, h1 h2)")
    return rep


# ------------------------------------------------------------- broken fixtures

def trivial_action_su2():
    """CONJ(SU2) with the action forgotten: equivariance and Peiffer fail, and
    the interchange diagram cannot be pasted."""
    return CrossedModule("TRIVIAL_ACTION(SU2)", SU2(), SU2(),
                         t=lambda h: h, alpha=lambda g, h: h)


def squaring_su2():
    """t(h) = h^2 on CONJ(SU2): not a homomorphism, and Peiffer fails."""
    G = SU2()
    return CrossedModule("SQUARING(SU2)", G, SU2(),
                         t=lambda h: G.mul(h, h), alpha=lambda g, h: G.conj(g, h))


def commuting_su2_fiber():
    """A trivial base over SU2 with a trivial t: Peiffer and Eckmann-Hilton fail."""
    G = TRIVIAL()
    return CrossedModule("TRIVIAL_BASE(SU2)", G, SU2(),
                         t=lambda h: G.identity, alpha=lambda g, h: h)


def scaled_t_u1():
    """t leaves U1: every check that multiplies by t(h) raises."""
    return CrossedModule("SCALED_T(U1)", U1(), U1(),
                         t=lambda h: 2 * h, alpha=lambda g, h: U1().conj(g, h))


def phase_scaled_t_u1():
    """t leaves U1 by a factor that grows with the phase of h, and not at all
    for a phase <= 0: the defect, and whether there is one, differ by case."""
    return CrossedModule("PHASE_SCALED_T(U1)", U1(), U1(),
                         t=lambda h: h * (1 + np.maximum(np.angle(h), 0)),
                         alpha=lambda g, h: U1().conj(g, h))


MODULES = {
    "CONJ(SU2)": lambda: crossed_module("CONJ(SU2)"),
    "CONJ(U1)": lambda: crossed_module("CONJ(U1)"),
    "AUT(SU2)": lambda: crossed_module("AUT(SU2)"),
    "GERBE(U1)": lambda: crossed_module("GERBE(U1)"),
    "CONJ(S3)": lambda: crossed_module("CONJ(S3)"),
    "PEIFFER_BROKEN(S3)": peiffer_violating_fixture,
    "TRIVIAL_ACTION(SU2)": trivial_action_su2,
    "SQUARING(SU2)": squaring_su2,
    "TRIVIAL_BASE(SU2)": commuting_su2_fiber,
    "SCALED_T(U1)": scaled_t_u1,
}
SEEDS = [0, 7, 42]
SAMPLES = [0, 1, 5, 60]


def _outcome(run):
    """The report's dict, or the type, text and arrows of the error raised."""
    try:
        return run().to_dict()
    except TwoGaugeError as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "source", None),
                getattr(exc, "target", None))


@pytest.mark.parametrize("name", sorted(MODULES))
def test_sampled_validation_equals_the_scalar_loop(name):
    cm = MODULES[name]()
    for seed, samples in itertools.product(SEEDS, SAMPLES):
        got = _outcome(lambda: validate_crossed_module(cm, mode="sampled",
                                                       samples=samples, seed=seed))
        assert got == _outcome(lambda: scalar_validate(cm, samples, seed)), (seed, samples)


@pytest.mark.parametrize("name", sorted(MODULES))
def test_sampled_interchange_equals_the_scalar_loop(name):
    cm = MODULES[name]()
    for seed, samples in itertools.product(SEEDS, SAMPLES):
        got = _outcome(lambda: check_interchange(cm, mode="sampled",
                                                 samples=samples, seed=seed))
        assert got == _outcome(lambda: scalar_interchange(cm, samples, seed)), (seed, samples)


@pytest.mark.parametrize("name", ["GERBE(U1)", "TRIVIAL_BASE(SU2)"])
def test_sampled_eckmann_hilton_equals_the_scalar_loop(name):
    cm = MODULES[name]()
    for seed, samples in itertools.product(SEEDS, SAMPLES):
        got = _outcome(lambda: eckmann_hilton_probe(cm, samples=samples, seed=seed))
        assert got == _outcome(lambda: scalar_eckmann_hilton(cm, samples, seed)), (seed, samples)


def test_the_fixtures_fail_where_they_are_broken():
    # guards the comparisons above against fixtures that never fail
    assert validate_crossed_module(trivial_action_su2(), samples=5).check(
        "peiffer").verdict == "FAIL"
    assert validate_crossed_module(squaring_su2(), samples=5).check(
        "t-homomorphism").verdict == "FAIL"
    assert not check_interchange(commuting_su2_fiber(), samples=5).passed
    assert not eckmann_hilton_probe(commuting_su2_fiber(), samples=5).passed
    with pytest.raises(CompositionError) as exc:
        check_interchange(trivial_action_su2(), samples=5)
    assert exc.value.source.startswith("[[") and exc.value.target.startswith("[[")
    with pytest.raises(GroupDomainError, match="not in U1"):
        validate_crossed_module(scaled_t_u1(), samples=5)


@pytest.mark.parametrize("name", ["CONJ(SU2)", "AUT(SU2)", "GERBE(U1)"])
def test_more_samples_than_one_block_keep_the_scalar_count(name, monkeypatch):
    # blocks of 4 cases: the count and the witness do not depend on the block size
    monkeypatch.setattr("twogauge.crossed.BLOCK", 4)
    cm = MODULES[name]()
    assert check_interchange(cm, samples=11, seed=3).to_dict() \
        == scalar_interchange(cm, 11, 3).to_dict()
    assert validate_crossed_module(cm, mode="sampled", samples=11, seed=3).to_dict() \
        == scalar_validate(cm, 11, 3).to_dict()


def test_cell_batch_on_stacks_follows_two_cell():
    cm = crossed_module("AUT(SU2)")
    rng = np.random.default_rng(5)
    g1, g2 = (np.stack([cm.G.random(rng) for _ in range(20)]) for _ in range(2))
    h1, h2 = (np.stack([cm.H.random(rng) for _ in range(20)]) for _ in range(2))
    a, b = CellBatch(cm, g1, h1), CellBatch(cm, g2, h2)
    results = [a.horizontal(b), a.vertical(CellBatch(cm, a.target, h2)),
               a.vertical_inverse(), a.whisker_left(g2), a.whisker_right(g2)]
    for k in range(20):
        s, t = TwoCell(cm, g1[k], h1[k]), TwoCell(cm, g2[k], h2[k])
        expected = [s.horizontal(t), s.vertical(TwoCell(cm, s.target, t.h)),
                    s.vertical_inverse(), s.whisker_left(t.g), s.whisker_right(t.g)]
        for got, want in zip(results, expected):
            assert got.g[k].tobytes() == want.g.tobytes()
            assert got.h[k].tobytes() == want.h.tobytes()
        assert a.label(k) == s.label()
        # a single element shared by every case labels as itself
        assert CellBatch.identity(cm, g1).label(k) == TwoCell.identity(cm, g1[k]).label()
    assert repr(a) == "<CellBatch AUT(SU2) shape=(20,)>"


def test_cell_batch_on_stacks_names_the_first_mismatch():
    cm = crossed_module("CONJ(SU2)")
    rng = np.random.default_rng(6)
    g = np.stack([cm.G.random(rng) for _ in range(3)])
    h = np.stack([cm.H.random(rng) for _ in range(3)])
    a = CellBatch(cm, g, h)
    top_g = a.target.copy()
    top_g[1] = cm.G.identity  # cases 1 and 2 mismatch; case 1 is named
    top_g[2] = cm.G.identity
    with pytest.raises(CompositionError) as exc:
        a.vertical(CellBatch(cm, top_g, h))
    with pytest.raises(CompositionError) as scalar:
        TwoCell(cm, g[1], h[1]).vertical(TwoCell(cm, top_g[1], h[1]))
    assert (exc.value.source, exc.value.target) \
        == (scalar.value.source, scalar.value.target)


def test_matrix_eq_on_stacks_keeps_the_norm_bits():
    G = SU2()
    rng = np.random.default_rng(8)
    a = np.stack([G.random(rng) for _ in range(50)])
    b = a + rng.normal(scale=1e-9, size=a.shape) + 1j * rng.normal(scale=1e-9, size=a.shape)
    assert G.eq(a, b).tolist() == [bool(G.eq(x, y)) for x, y in zip(a, b)]
    assert G.eq(a, G.identity).tolist() == [bool(G.eq(x, G.identity)) for x in a]
    # every matrix's own distance as the tolerance: a last-bit difference shows
    for tol in [np.linalg.norm(x - y) for x, y in zip(a, b)]:
        assert G.eq(a, b, tol).tolist() == [bool(G.eq(x, y, tol)) for x, y in zip(a, b)]


def test_a_case_dependent_defect_raises_where_the_scalar_loop_raises():
    # The batch applies each operation to every case before the next one, so
    # when the first raising case fails at a later operation than another
    # case, the batch names that other case's defect. The error type and the
    # point of failure (a run that raises) stay those of the scalar loop.
    cm = phase_scaled_t_u1()
    differ = []
    for seed, samples in itertools.product(SEEDS, [1, 5, 60]):
        got = _outcome(lambda: check_interchange(cm, mode="sampled",
                                                 samples=samples, seed=seed))
        want = _outcome(lambda: scalar_interchange(cm, samples, seed))
        assert type(got) is type(want)
        if isinstance(got, tuple):
            assert got[0] == want[0] == "GroupDomainError"
            assert got[1].startswith("matrix is not in U1 (defect ")
        if got != want:
            differ.append((seed, samples))
        assert _outcome(lambda: validate_crossed_module(cm, mode="sampled", samples=samples,
                                                        seed=seed)) \
            == _outcome(lambda: scalar_validate(cm, samples, seed))
    assert differ == [(7, 60)]
