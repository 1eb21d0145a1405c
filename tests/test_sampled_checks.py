"""Sampled axiom, interchange, Eckmann-Hilton and differential checks against
per-case loops.

The oracles below are the loops the sampled checks ran before they were
batched: the same random draws, one tuple at a time, then one scalar
predicate, one TwoCell diagram or one residual per case, compared with each
group's `eq` at its default tolerance. Every comparison of checks is of
whole reports, or of the error a run raises; the stacked draws, exp and log
they rest on are compared bit for bit.
"""

import itertools
import warnings

import numpy as np
import pytest

from twogauge.crossed import (FIRST_ORDER_BOUND, CrossedModule, crossed_module,
                              differential_consistency, peiffer_violating_fixture,
                              validate_crossed_module)
from twogauge.errors import CompositionError, GroupDomainError, LogRangeError, TwoGaugeError
from twogauge.groups import SO3, SU2, TRIVIAL, U1, FiniteGroup, _logm_2x2, random_stacks
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


# ------------------------------------------------ stacked draws, exp and log

def _bits(stack):
    stack = np.asarray(stack)
    return stack.dtype, stack.shape, stack.tobytes()


GROUPS = {"TRIVIAL": TRIVIAL, "U1": U1, "SU2": SU2, "SO3": SO3,
          "S3": lambda: FiniteGroup.symmetric(3), "Z5": lambda: FiniteGroup.cyclic(5)}
PATTERNS = [("TRIVIAL",), ("U1",), ("SU2",), ("SO3",), ("SU2", "SU2", "U1"),
            ("TRIVIAL", "SO3", "SU2", "SU2"), ("U1", "TRIVIAL", "U1"),
            ("SO3", "SO3", "SU2", "SU2", "SU2", "SU2"),
            # a finite group anywhere: the tuple loop
            ("S3", "Z5", "Z5"), ("SU2", "S3")]


@pytest.mark.parametrize("pattern", PATTERNS, ids="-".join)
def test_random_stacks_have_the_draws_and_bits_of_the_tuple_loop(pattern):
    groups = [GROUPS[name]() for name in pattern]
    for seed, samples in itertools.product(SEEDS, SAMPLES):
        stacked, looped = _rng(seed), _rng(seed)
        got = random_stacks(groups, stacked, samples)
        want = [tuple(g.random(looped) for g in groups) for _ in range(samples)]
        assert len(got) == len(groups)
        for k, g in enumerate(groups):
            column = np.array([case[k] for case in want]) if samples else \
                np.zeros((0,) + np.shape(g.identity), dtype=np.asarray(g.identity).dtype)
            assert _bits(got[k]) == _bits(column), (seed, samples, k)
        # the next draw is the same: both consumed the same stream
        assert stacked.bit_generator.state == looped.bit_generator.state


@pytest.mark.parametrize("name", ["SU2", "SO3"])
def test_stacked_exp_has_the_per_matrix_expm_bits(name):
    import scipy.linalg
    G = GROUPS[name]()
    rng = np.random.default_rng(9)
    # norms from 1e-8 to 30: every Pade degree and scaling expm picks, mixed in one stack
    x = np.array([G.algebra.random(rng, 1.0) * s
                  for s in np.geomspace(1e-8, 30.0, 40)[rng.permutation(40)]])
    assert _bits(G.exp(x)) == _bits(np.array([G.renormalize(scipy.linalg.expm(m)) for m in x]))
    assert _bits(G.exp(x)) == _bits(np.array([G.exp(m) for m in x]))


def test_u1_log_has_the_logm_bits():
    import scipy.linalg
    G = U1()
    rng = np.random.default_rng(11)
    # random phases, then ones next to the cut locus at +-pi, next to 0 and exact
    phases = np.concatenate([rng.uniform(-np.pi, np.pi, 300),
                             np.pi - np.geomspace(2e-8, 1e-2, 12),
                             -np.pi + np.geomspace(2e-8, 1e-2, 12),
                             [0.0, -0.0, 1e-300, -1e-300, 1e-16, np.pi / 2, -np.pi / 2]])
    stack = np.exp(1j * phases)[:, None, None]
    want = np.array([G.algebra.project(scipy.linalg.logm(g)) for g in stack])
    assert _bits([G.log(g) for g in stack]) == _bits(want)
    assert _bits(G.log(stack)) == _bits(want)
    # the refusal at the cut locus; a stack names its first refused matrix
    for phase in (np.pi, -np.pi, np.pi - 5e-9):
        g = np.array([[np.exp(1j * phase)]])
        with pytest.raises(LogRangeError, match="cut locus of U1") as alone:
            G.log(g)
        with pytest.raises(LogRangeError) as stacked:
            G.log(np.stack([stack[0], g, np.conj(g)]))
        assert (str(stacked.value), stacked.value.eigenvalue) \
            == (str(alone.value), alone.value.eigenvalue)


def _recorded(call):
    """call's result and the warnings it raised, each recorded ("always")."""
    with warnings.catch_warnings(record=True) as records:
        warnings.simplefilter("always")
        result = call()
    return result, [(w.category, str(w.message)) for w in records]


def test_su2_log_has_the_logm_bits():
    import scipy.linalg
    G = SU2()
    rng = np.random.default_rng(13)
    # eigenphases +-s, from 0.01 to 3.1 and then within 1.1e-8 of pi: the
    # coordinates of norm 2 s along a random axis
    phases = np.concatenate([np.geomspace(0.01, 3.1, 3000)[rng.permutation(3000)],
                             np.pi - np.geomspace(1.1e-8, 1e-1, 40)])
    axes = rng.normal(size=(len(phases), 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    drawn = G.exp(G.algebra.from_coords(2 * phases[:, None] * axes))
    # and upper triangular inputs, which logm takes without a Schur form
    diagonal = np.array([G.identity] + [np.diag([np.exp(1j * s), np.exp(-1j * s)])
                         for s in (0.0, 1e-300, 1e-12, 0.3, np.pi / 2, 3.1, np.pi - 1.1e-8)])
    stack = np.concatenate([drawn, diagonal])
    want, logm_warned = _recorded(
        lambda: np.array([G.algebra.project(scipy.linalg.logm(g)) for g in stack]))
    alone, warned_alone = _recorded(lambda: [G.log(g) for g in stack])
    stacked, warned_stacked = _recorded(lambda: G.log(stack))
    assert _bits(alone) == _bits(want)
    assert _bits(stacked) == _bits(want)
    assert warned_alone == warned_stacked == logm_warned


def test_so3_log_has_the_logm_bits():
    import scipy.linalg
    G = SO3()
    rng = np.random.default_rng(17)
    # rotation angles from 1e-8 to 3.1 and then within 1.1e-8 of pi, about
    # random axes, and the identity
    angles = np.concatenate([np.geomspace(1e-8, 3.1, 120)[rng.permutation(120)],
                             np.pi - np.geomspace(1.1e-8, 1e-1, 12)])
    axes = rng.normal(size=(len(angles), 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    stack = np.concatenate([G.exp(G.algebra.from_coords(angles[:, None] * axes)),
                            [G.identity]])
    # logm turns complex within about 1e-7 of pi, and the projection warns as
    # it drops the imaginary part
    want, logm_warned = _recorded(
        lambda: np.array([G.algebra.project(scipy.linalg.logm(g)) for g in stack]))
    alone, warned_alone = _recorded(lambda: [G.log(g) for g in stack])
    stacked, warned_stacked = _recorded(lambda: G.log(stack))
    assert _bits(alone) == _bits(want)
    assert _bits(stacked) == _bits(want)
    assert warned_alone == logm_warned and warned_stacked == logm_warned[:1] != []


# finite complex matrices that no group admits, each with how many of them
# `_logm_2x2` hands to logm itself
LOGM_ROUTES = {
    "nearly singular": ([[1e-25j, 0.0], [1.0, 1.0]], 1),
    "exactly singular, upper triangular": ([[0.0, 1.0], [0.0, 1j]], 1),
    "defective, upper triangular": ([[1j, 1.0], [0.0, 1j]], 0),
    "defective": ([[2.0, 1.0], [-1.0, 0.0]], 0),
    "negative real eigenvalue": ([[-2.0, 1.0], [0.5, 1.0]], 1),
    "diagonal": ([[2.0, 0.0], [0.0, 0.5j]], 0),
    "inaccurate": ([[1.0, 0.5], [-1e9, 1.0]], 1),
}


@pytest.mark.parametrize("name", LOGM_ROUTES)
def test_a_2x2_log_takes_logm_where_logm_does_more(name, monkeypatch):
    import scipy.linalg
    logm = scipy.linalg.logm
    a, to_logm = np.array(LOGM_ROUTES[name][0], dtype=complex), LOGM_ROUTES[name][1]
    want = _recorded(lambda: logm(a))
    calls = []
    monkeypatch.setattr(scipy.linalg, "logm", lambda m: calls.append(m) or logm(m))
    got, warned = _recorded(lambda: _logm_2x2(a[None]))
    assert (_bits(got[0]), warned) == (_bits(want[0]), want[1])
    assert len(calls) == to_logm


def test_a_2x2_log_stack_takes_logm_in_order():
    import scipy.linalg
    stack = np.array([m for m, _ in LOGM_ROUTES.values()], dtype=complex)
    want, logm_warned = _recorded(lambda: np.array([scipy.linalg.logm(m) for m in stack]))
    assert [m.split(" = ")[0] for _, m in logm_warned] == [
        "The logm input matrix may be nearly singular.",
        "The logm input matrix is exactly singular.",
        "logm result may be inaccurate, approximate err"]
    got, warned = _recorded(lambda: _logm_2x2(stack))
    assert (_bits(got), warned) == (_bits(want), logm_warned)


def test_a_2x2_log_hands_schur_one_matrix_at_a_time(monkeypatch):
    # scipy before 1.15 refuses a stack in schur; pyproject admits scipy>=1.10
    import scipy.linalg
    schur = scipy.linalg.schur
    shapes = []
    monkeypatch.setattr(scipy.linalg, "schur",
                        lambda a, **kw: shapes.append(np.shape(a)) or schur(a, **kw))
    G, rng = SU2(), np.random.default_rng(14)
    stack = np.array([G.random(rng) for _ in range(6)])
    _logm_2x2(stack)
    assert shapes == [(2, 2)] * 6


@pytest.mark.parametrize("name", ["SU2", "SO3"])
def test_stacked_log_names_the_first_refused_matrix(name):
    G = GROUPS[name]()
    rng = np.random.default_rng(12)
    good = np.array([G.random(rng) for _ in range(4)])
    assert _bits(G.log(good)) == _bits(np.array([G.log(g) for g in good]))
    # a half turn (eigenvalue -1) at positions 2 and 3 of the stack
    half_turn = np.diag([-1.0, -1.0] + [1.0] * (G.n - 2)).astype(G.dtype)
    bad = np.concatenate([good[:2], [half_turn, half_turn], good[2:]])
    with pytest.raises(LogRangeError) as alone:
        G.log(half_turn)
    with pytest.raises(LogRangeError) as stacked:
        G.log(bad)
    assert (str(stacked.value), stacked.value.eigenvalue) \
        == (str(alone.value), alone.value.eigenvalue)


def scalar_differential_consistency(cm, samples, seed, eps=1e-3):
    """differential_consistency, one sample at a time."""
    rng = _rng(seed)
    rep = ValidationReport(f"differential consistency: {cm.name}")
    if samples < 1:
        rep.skip("dt-first-order", NO_SAMPLES)
        rep.skip("dalpha-first-order", NO_SAMPLES)
        return rep
    G, H = cm.G, cm.H
    worst_t = 0.0
    worst_a = 0.0
    for _ in range(samples):
        x = H.algebra.random(rng, scale=0.5)
        y = G.algebra.random(rng, scale=0.5)
        r_t = np.linalg.norm(cm.t(H.exp(eps * x)) - G.exp(eps * cm.dt(x)))
        worst_t = max(worst_t, r_t / eps ** 2)
        h = H.exp(x)
        lhs = H.log(cm.alpha(G.exp(eps * y), h))
        r_a = np.linalg.norm(lhs - (x + eps * cm.dalpha(y, x)))
        worst_a = max(worst_a, r_a / eps ** 2)
    rep.add("dt-first-order", worst_t <= FIRST_ORDER_BOUND, residual=worst_t,
            tolerance=FIRST_ORDER_BOUND)
    rep.add("dalpha-first-order", worst_a <= FIRST_ORDER_BOUND, residual=worst_a,
            tolerance=FIRST_ORDER_BOUND)
    return rep


def _rewired(name, label, **maps):
    """A shipped matrix module with some of t, alpha and dalpha replaced."""
    base = crossed_module(name)
    parts = {"t": base.t, "alpha": base.alpha, "dt": base.dt, "dalpha": base.dalpha, **maps}
    return CrossedModule(f"{label}({name})", base.G, base.H, **parts)


DIFFERENTIAL_MODULES = {
    **{name: (lambda name=name: crossed_module(name))
       for name in ("CONJ(U1)", "CONJ(SU2)", "AUT(SU2)", "GERBE(U1)")},
    # alpha lands on -1, the cut locus of the log: LogRangeError
    "HALF_TURN(SU2)": lambda: _rewired("CONJ(SU2)", "HALF_TURN",
                                       alpha=lambda g, h: -np.broadcast_to(np.eye(2), h.shape)),
    # alpha leaves U1 for a positive phase only: the defect differs by sample
    "PHASE_SCALED(U1)": lambda: _rewired("CONJ(U1)", "PHASE_SCALED",
                                         alpha=lambda g, h: h * (1 + np.maximum(np.angle(h), 0))),
    # a residual that is NaN for some samples and large for the others
    "NAN_DALPHA(U1)": lambda: _rewired("CONJ(U1)", "NAN_DALPHA",
                                       dalpha=lambda y, x: y @ x - x @ y + np.log(x.imag)),
    "NAN_T(U1)": lambda: _rewired("GERBE(U1)", "NAN_T",
                                  t=lambda h: np.sqrt(np.angle(h))),
}


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_MODULES))
def test_differential_consistency_equals_the_sample_loop(name):
    cm = DIFFERENTIAL_MODULES[name]()
    outcomes = set()
    with np.errstate(invalid="ignore"):
        for seed, samples in itertools.product(SEEDS, SAMPLES + [20]):
            got = _outcome(lambda: differential_consistency(cm, samples=samples, seed=seed))
            want = _outcome(lambda: scalar_differential_consistency(cm, samples, seed))
            assert got == want, (seed, samples)
            if isinstance(got, dict):
                residuals = [c.get("residual") for c in got["checks"]]
                outcomes.add("PASS" if got["verdict"] == "PASS" else "FAIL")
                assert all(r is None or np.isfinite(r) for r in residuals)
            else:
                outcomes.add(got[0])
    expected = {"HALF_TURN(SU2)": {"LogRangeError"}, "PHASE_SCALED(U1)": {"GroupDomainError"},
                "NAN_DALPHA(U1)": {"FAIL"}, "NAN_T(U1)": {"FAIL"}}.get(name, {"PASS"})
    # samples 0 skip every check, a verdict of PASS
    assert outcomes - {"PASS"} == expected - {"PASS"}
