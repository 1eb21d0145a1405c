import itertools

import numpy as np
import pytest

import twogauge.crossed as crossed
from twogauge.crossed import (crossed_module, from_tables, peiffer_violating_fixture,
                              shipped_finite_names)
from twogauge.errors import CompositionError, GroupDomainError
from twogauge.report import ValidationReport
from twogauge.twocells import (CellBatch, TwoCell, _interchange_holds, check_interchange,
                               eckmann_hilton_probe)


def test_endpoints_and_identity():
    cm = crossed_module("CONJ(S3)")
    for h in cm.H.elements():
        for g in cm.G.elements():
            c = TwoCell(cm, g, h)
            assert c.source == g
            assert c.target == cm.G.mul(cm.t(h), g)
    i = TwoCell.identity(cm, 3)
    assert i.source == i.target == 3


def test_vertical_pinned_example():
    # trivial 1-arrow group over Z/5: h parts add, top factor on the left
    cm = crossed_module("GERBE(Z5)")
    e = cm.G.identity
    out = TwoCell(cm, e, 2).vertical(TwoCell(cm, e, 1))
    assert (out.g, out.h) == (e, 3)


def test_horizontal_pinned_example():
    # Z/2 flipping Z/3: (1,1) beside (0,2) gives (1, 1 + alpha(1)(2)) = (1, 2)
    cm = crossed_module("FLIP(Z3)")
    out = TwoCell(cm, 1, 1).horizontal(TwoCell(cm, 0, 2))
    assert (out.g, out.h) == (1, 2)


def test_s3_composites_match_defining_formulas():
    cm = crossed_module("CONJ(S3)")
    G, H = cm.G, cm.H
    rng = np.random.default_rng(0)
    for _ in range(50):
        g1, g2 = G.random(rng), G.random(rng)
        h1, h2 = H.random(rng), H.random(rng)
        a = TwoCell(cm, g1, h1)
        b = TwoCell(cm, a.target, h2)
        v = a.vertical(b)
        assert (v.g, v.h) == (g1, H.mul(h2, h1))
        c = TwoCell(cm, g2, h2)
        hz = a.horizontal(c)
        assert (hz.g, hz.h) == (G.mul(g1, g2), H.mul(h1, cm.alpha(g1, h2)))


def test_vertical_needs_matching_arrows():
    cm = crossed_module("CONJ(S3)")
    a = TwoCell(cm, 0, 1)
    mismatched = TwoCell(cm, cm.G.mul(cm.t(1), 2), 2)
    if not cm.G.eq(mismatched.source, a.target):
        with pytest.raises(CompositionError) as ei:
            a.vertical(mismatched)
        assert ei.value.source is not None and ei.value.target is not None


def test_inverses_cancel():
    cm = crossed_module("CONJ(S3)")
    rng = np.random.default_rng(1)
    for _ in range(30):
        c = TwoCell(cm, cm.G.random(rng), cm.H.random(rng))
        v = c.vertical(c.vertical_inverse())
        assert v.eq(TwoCell.identity(cm, c.source))
        hz = c.horizontal(c.horizontal_inverse())
        assert hz.source == cm.G.identity
        assert hz.h == cm.H.identity
    cm2 = crossed_module("CONJ(SU2)")
    c = TwoCell(cm2, cm2.G.random(rng), cm2.H.random(rng))
    v = c.vertical(c.vertical_inverse())
    assert v.eq(TwoCell.identity(cm2, c.source), 1e-9)
    hz = c.horizontal(c.horizontal_inverse())
    assert hz.eq(TwoCell.identity(cm2, cm2.G.identity), 1e-9)


def test_whiskering_is_horizontal_with_identity():
    cm = crossed_module("AUT(S3)")
    rng = np.random.default_rng(2)
    c = TwoCell(cm, cm.G.random(rng), cm.H.random(rng))
    g0 = cm.G.random(rng)
    left = c.whisker_left(g0)
    assert (left.g, left.h) == (cm.G.mul(g0, c.g), cm.alpha(g0, c.h))
    right = c.whisker_right(g0)
    assert (right.g, right.h) == (cm.G.mul(c.g, g0), c.h)


@pytest.mark.parametrize("name", ["CONJ(S3)", "AUT(S3)", "FLIP(Z3)", "GERBE(Z5)"])
def test_interchange_exhaustive(name):
    rep = check_interchange(crossed_module(name), mode="exhaustive")
    assert rep.passed
    assert "(exhaustive)" in rep.check("interchange").detail


@pytest.mark.parametrize("name", ["CONJ(SU2)", "AUT(SU2)", "GERBE(U1)"])
def test_interchange_sampled_matrix(name):
    rep = check_interchange(crossed_module(name), samples=60)
    assert rep.passed


def test_interchange_fails_exactly_on_peiffer_violation():
    bad = peiffer_violating_fixture()
    rep = check_interchange(bad, mode="exhaustive")
    assert not rep.passed
    w = rep.check("interchange").witness
    assert w is not None and "h1" in w and "h3" in w


def test_exhaustive_rejected_over_budget():
    with pytest.raises(GroupDomainError):
        check_interchange(crossed_module("CONJ(SU2)"), mode="exhaustive")


def test_eckmann_hilton_abelian_agrees():
    rep = eckmann_hilton_probe(crossed_module("GERBE(Z5)"))
    assert rep.passed
    rep = eckmann_hilton_probe(crossed_module("GERBE(U1)"), samples=40)
    assert rep.passed


def test_eckmann_hilton_witness_on_nonabelian():
    rep = eckmann_hilton_probe(peiffer_violating_fixture())
    assert not rep.passed
    w = rep.check("pastings-agree").witness
    assert w["vertical"] != w["horizontal"]


def test_eckmann_hilton_needs_trivial_base():
    with pytest.raises(GroupDomainError):
        eckmann_hilton_probe(crossed_module("CONJ(S3)"))


# ------------------------------------------------ batched against scalar

def scalar_interchange_report(cm):
    """check_interchange's exhaustive report, one TwoCell diagram per case."""
    G, H = cm.G, cm.H
    bad, worst, total = 0, None, 0
    for g1, g2, h1, h2, h3, h4 in itertools.product(
            G.elements(), G.elements(), H.elements(), H.elements(),
            H.elements(), H.elements()):
        total += 1
        if not scalar_interchange_holds(cm, g1, g2, h1, h2, h3, h4):
            bad += 1
            if worst is None:
                worst = {"g1": G.label(g1), "g2": G.label(g2),
                         "h1": H.label(h1), "h2": H.label(h2),
                         "h3": H.label(h3), "h4": H.label(h4)}
    rep = ValidationReport(f"interchange: {cm.name}")
    rep.add("interchange", bad == 0, witness=worst,
            detail=f"{total - bad}/{total} cases (exhaustive)")
    return rep


def scalar_interchange_holds(cm, g1, g2, h1, h2, h3, h4):
    f1 = TwoCell(cm, g1, h1)
    f2 = TwoCell(cm, f1.target, h2)
    f3 = TwoCell(cm, g2, h3)
    f4 = TwoCell(cm, f3.target, h4)
    lhs = f1.vertical(f2).horizontal(f3.vertical(f4))
    rhs = f1.horizontal(f3).vertical(f2.horizontal(f4))
    return lhs.eq(rhs)


def scalar_eckmann_hilton_report(cm):
    H = cm.H
    e = cm.G.identity
    witness = None
    for h1, h2 in itertools.product(H.elements(), H.elements()):
        vert = TwoCell(cm, e, h1).vertical(TwoCell(cm, e, h2))
        horiz = TwoCell(cm, e, h1).horizontal(TwoCell(cm, e, h2))
        if not vert.eq(horiz):
            witness = {"h1": H.label(h1), "h2": H.label(h2),
                       "vertical": vert.label(), "horizontal": horiz.label()}
            break
    rep = ValidationReport(f"eckmann-hilton: {cm.name}")
    rep.add("pastings-agree", witness is None, witness=witness,
            detail="vertical (1, h2 h1) vs horizontal (1, h1 h2)")
    return rep


def twisted_peiffer():
    # Z/2 acting on S3 by conjugation with (12), t trivial: only Peiffer
    # fails, and no interchange case with h1 = e does, so the first failing
    # case lies past the first block of 1, 7 or 100 cases
    s3 = crossed_module("CONJ(S3)").H
    return from_tables({"name": "twisted-peiffer",
                        "G": {"table": [[0, 1], [1, 0]]},
                        "H": {"table": s3.table.tolist(), "names": list(s3.names)},
                        "t": [0] * 6,
                        "alpha": [list(range(6)), s3.conjugation_table()[2].tolist()]})


def _module(name):
    if name == "twisted-peiffer":
        return twisted_peiffer()
    if name == "PEIFFER_BROKEN(S3)":
        return peiffer_violating_fixture()
    return crossed_module(name)


# block sizes that cut the index grids inside an axis, and the default
BLOCKS = [1, 7, 100, crossed.BLOCK]


@pytest.mark.parametrize("name", shipped_finite_names()
                         + ["PEIFFER_BROKEN(S3)", "twisted-peiffer"])
def test_batched_interchange_report_equals_scalar(name, monkeypatch):
    cm = _module(name)
    want = scalar_interchange_report(cm).to_dict()
    for block in BLOCKS:
        monkeypatch.setattr(crossed, "BLOCK", block)
        assert check_interchange(cm).to_dict() == want


def test_twisted_peiffer_fails_first_past_the_first_blocks():
    cm = twisted_peiffer()
    check = check_interchange(cm).check("interchange")
    assert check.verdict == "FAIL"
    case = [list((cm.G if k[0] == "g" else cm.H).names).index(label)
            for k, label in check.witness.items()]
    assert np.ravel_multi_index(case, (2, 2) + (6,) * 4) >= 100


@pytest.mark.parametrize("name", ["CONJ(S3)", "AUT(S3)", "PEIFFER_BROKEN(S3)"])
def test_batched_interchange_cases_equal_scalar_on_seeded_cases(name):
    cm = _module(name)
    rng = np.random.default_rng(2000)
    G, H = cm.G.order, cm.H.order
    cases = [rng.integers(n, size=2000) for n in (G, G, H, H, H, H)]
    batched = _interchange_holds(cm.compiled(), *cases)
    scalar = [scalar_interchange_holds(cm, *(int(c[k]) for c in cases))
              for k in range(2000)]
    assert batched.tolist() == scalar


def test_peiffer_broken_interchange_witness_is_pinned():
    check = check_interchange(peiffer_violating_fixture()).check("interchange")
    assert check.detail == "648/1296 cases (exhaustive)"
    assert check.witness == {"g1": "e", "g2": "e", "h1": "(23)", "h2": "e",
                             "h3": "e", "h4": "(12)"}


def equivariance_broken():
    # Z/2 swapping the factors of the Klein group, t the first projection:
    # t(alpha(1)(a, b)) = b differs from t(a, b) = a
    klein = [[a ^ b for b in range(4)] for a in range(4)]
    return from_tables({"name": "swap-klein",
                        "G": {"table": [[0, 1], [1, 0]]},
                        "H": {"table": klein},
                        "t": [0, 0, 1, 1],
                        "alpha": [[0, 1, 2, 3], [0, 2, 1, 3]]})


def test_batched_interchange_raises_the_scalar_composition_error(monkeypatch):
    cm = equivariance_broken()
    with pytest.raises(CompositionError) as scalar:
        for case in itertools.product(range(2), range(2), *[range(4)] * 4):
            scalar_interchange_holds(cm, *case)
    for block in BLOCKS:
        monkeypatch.setattr(crossed, "BLOCK", block)
        with pytest.raises(CompositionError) as batched:
            check_interchange(cm)
        assert str(batched.value) == str(scalar.value)
        assert (batched.value.source, batched.value.target) \
            == (scalar.value.source, scalar.value.target)


@pytest.mark.parametrize("name", ["GERBE(Z2)", "GERBE(Z3)", "GERBE(Z5)",
                                  "PEIFFER_BROKEN(S3)"])
def test_batched_eckmann_hilton_equals_scalar(name, monkeypatch):
    cm = _module(name)
    want = scalar_eckmann_hilton_report(cm).to_dict()
    for block in BLOCKS:
        monkeypatch.setattr(crossed, "BLOCK", block)
        assert eckmann_hilton_probe(cm).to_dict() == want


def test_cell_batch_follows_two_cell_conventions():
    # every operation, on every pair of cells of a module with a nontrivial
    # action, agrees case by case with TwoCell
    cm = crossed_module("AUT(S3)")
    tab = cm.compiled()
    G, H = cm.G.order, cm.H.order
    g1, h1, g2, h2 = np.unravel_index(np.arange(G * H * G * H), (G, H, G, H))
    a, b = CellBatch(tab, g1, h1), CellBatch(tab, g2, h2)
    on_top = CellBatch(tab, a.target, h2)
    results = [a.horizontal(b), a.vertical(on_top), a.vertical_inverse(),
               a.whisker_left(g2), a.whisker_right(g2)]
    for k in range(len(g1)):
        s = TwoCell(cm, int(g1[k]), int(h1[k]))
        t = TwoCell(cm, int(g2[k]), int(h2[k]))
        expected = [s.horizontal(t), s.vertical(TwoCell(cm, s.target, t.h)),
                    s.vertical_inverse(), s.whisker_left(t.g), s.whisker_right(t.g)]
        for got, want in zip(results, expected):
            assert (got.g[k], got.h[k]) == (want.g, want.h)
        assert a.label(k) == s.label()


def test_cell_batch_vertical_names_the_first_mismatch():
    cm = crossed_module("CONJ(S3)")
    tab = cm.compiled()
    a = CellBatch(tab, np.array([0, 0, 0]), np.array([0, 1, 2]))
    top = CellBatch(tab, np.array([0, 0, 0]), 0)
    with pytest.raises(CompositionError) as exc:
        a.vertical(top)
    with pytest.raises(CompositionError) as scalar:
        TwoCell(cm, 0, 1).vertical(TwoCell(cm, 0, 0))
    assert (exc.value.source, exc.value.target) \
        == (scalar.value.source, scalar.value.target)


def test_cell_batch_vertical_names_the_first_mismatch_of_a_grid():
    # cells (g, h) on a g-by-h grid, topped by cells whose source is the
    # target on row g = 0 and g elsewhere: the arrows match on row 0 and
    # where t(h) = e, so the first mismatch in row-major order is (1, 1)
    cm = crossed_module("AUT(S3)")
    tab = cm.compiled()
    g, h = np.arange(cm.G.order)[:, None], np.arange(cm.H.order)[None, :]
    a = CellBatch(tab, g, h)
    sources = np.where(g == 0, a.target, g)
    with pytest.raises(CompositionError) as batched:
        a.vertical(CellBatch(tab, sources, 0))
    with pytest.raises(CompositionError) as scalar:
        for i, j in itertools.product(range(cm.G.order), range(cm.H.order)):
            TwoCell(cm, i, j).vertical(TwoCell(cm, int(sources[i, j]), 0))
    assert (batched.value.source, batched.value.target) \
        == (scalar.value.source, scalar.value.target) \
        == (cm.G.label(1), cm.G.label(cm.G.mul(cm.t(1), 1)))
