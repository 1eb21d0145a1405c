"""Crossed module axioms, differential consistency, catalog integrity."""

import numpy as np
import pytest

import twogauge.crossed as crossed
from twogauge.crossed import (
    crossed_module, differential_consistency, from_tables,
    peiffer_violating_fixture, shipped_finite_names, shipped_matrix_names,
    validate_crossed_module,
)
from twogauge.errors import GroupDomainError
from twogauge.groups import FiniteGroup, automorphisms
from twogauge.report import ValidationReport


AXIOM_NAMES = {"t-homomorphism", "alpha-identity", "alpha-automorphism",
               "alpha-action", "equivariance", "peiffer"}


@pytest.mark.parametrize("name", shipped_finite_names())
def test_finite_catalog_validates_exhaustively(name):
    cm = crossed_module(name)
    rep = validate_crossed_module(cm, mode="exhaustive")
    assert rep.passed
    assert {c.name for c in rep.checks} == AXIOM_NAMES


@pytest.mark.parametrize("name", shipped_matrix_names())
def test_matrix_catalog_validates_sampled(name):
    cm = crossed_module(name)
    rep = validate_crossed_module(cm, mode="sampled", samples=40)
    assert rep.passed


def test_peiffer_fixture_fails_with_witness():
    rep = validate_crossed_module(peiffer_violating_fixture())
    assert not rep.passed
    assert [c.name for c in rep.failures] == ["peiffer"]
    w = rep.check("peiffer").witness
    # trivial action on nonabelian S3: found a genuinely noncommuting pair
    assert set(w) == {"h1", "h2"}
    H = FiniteGroup.symmetric(3)
    h1 = H.names.index(w["h1"])
    h2 = H.names.index(w["h2"])
    assert H.mul(h1, h2) != H.mul(h2, h1)


def test_exhaustive_mode_rejected_for_matrix_pairs():
    with pytest.raises(GroupDomainError):
        validate_crossed_module(crossed_module("CONJ(SU2)"), mode="exhaustive")


@pytest.mark.parametrize("name", shipped_matrix_names())
def test_differential_consistency(name):
    rep = differential_consistency(crossed_module(name), samples=20, eps=1e-3)
    assert rep.passed
    for c in rep.checks:
        assert c.residual <= 10.0


def test_differential_requires_data():
    with pytest.raises(GroupDomainError):
        differential_consistency(crossed_module("CONJ(S3)"))


def test_aut_su2_covering_and_lift():
    cm = crossed_module("AUT(SU2)")
    rng = np.random.default_rng(7)
    for _ in range(10):
        h = cm.H.random(rng)
        R = cm.t(h)
        cm.G._check(R)
        # covering is 2:1, a homomorphism, and conjugation-compatible
        h2 = cm.H.random(rng)
        assert np.linalg.norm(cm.t(cm.H.mul(h, h2)) - cm.G.mul(cm.t(h), cm.t(h2))) < 1e-9
        assert np.linalg.norm(cm.t(-h) - R) < 1e-12
        g = cm.G.random(rng)
        assert np.linalg.norm(cm.t(cm.alpha(g, h)) - cm.G.conj(g, cm.t(h))) < 1e-9


def test_aut_su2_dt_matrix_and_inverse():
    cm = crossed_module("AUT(SU2)")
    M = cm.dt_matrix()
    assert M.shape == (3, 3)
    # shipped bases are aligned: dt carries e_k^su2 to e_k^so3
    assert np.allclose(M, np.eye(3), atol=1e-12)
    # dalpha(y) is the bracket with the preimage of y under dt
    rng = np.random.default_rng(3)
    x1, x2 = cm.H.algebra.random(rng), cm.H.algebra.random(rng)
    assert np.linalg.norm(cm.dalpha(cm.dt(x1), x2) - (x1 @ x2 - x2 @ x1)) < 1e-12


def test_dalpha_group_matches_finite_difference():
    # closed form against the generic central-difference fallback
    for name in ["CONJ(SU2)", "AUT(SU2)"]:
        cm = crossed_module(name)
        rng = np.random.default_rng(11)
        for _ in range(5):
            y = cm.G.algebra.random(rng)
            h = cm.H.random(rng)
            closed = cm.dalpha_group(y, h)
            saved = cm._dalpha_group
            cm._dalpha_group = None
            try:
                fd = cm.dalpha_group(y, h)
            finally:
                cm._dalpha_group = saved
            assert np.linalg.norm(closed - fd) < 1e-8


def test_act_algebra_is_algebra_automorphism():
    cm = crossed_module("AUT(SU2)")
    rng = np.random.default_rng(5)
    g = cm.G.random(rng)
    x1 = cm.H.algebra.random(rng)
    x2 = cm.H.algebra.random(rng)
    lhs = cm.act_algebra(g, x1 @ x2 - x2 @ x1)
    r1 = cm.act_algebra(g, x1)
    r2 = cm.act_algebra(g, x2)
    assert np.linalg.norm(lhs - (r1 @ r2 - r2 @ r1)) < 1e-10
    # exponential naturality: alpha(g)(exp x) = exp(act(g) x)
    assert np.linalg.norm(cm.alpha(g, cm.H.exp(x1)) - cm.H.exp(cm.act_algebra(g, x1))) < 1e-10


def test_gerbe_requires_abelian_h():
    # trivial t + trivial action satisfies Peiffer iff H is abelian
    assert validate_crossed_module(crossed_module("GERBE(Z5)")).passed
    assert not validate_crossed_module(peiffer_violating_fixture()).passed


def test_flip_module_action_table():
    cm = crossed_module("FLIP(Z3)")
    assert cm.alpha(1, 1) == 2
    assert cm.alpha(1, 2) == 1
    assert cm.alpha(0, 1) == 1
    assert validate_crossed_module(cm).passed


def test_from_tables_roundtrip_and_shape_errors():
    cfg = {"name": "flip-inline",
           "G": {"table": [[0, 1], [1, 0]]},
           "H": {"table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]},
           "t": [0, 0, 0],
           "alpha": [[0, 1, 2], [0, 2, 1]]}
    cm = from_tables(cfg)
    assert validate_crossed_module(cm, mode="exhaustive").passed
    bad = dict(cfg, t=[0, 0])
    with pytest.raises(GroupDomainError):
        from_tables(bad)


def test_unknown_name_lists_catalog():
    with pytest.raises(GroupDomainError) as ei:
        crossed_module("NOPE(1)")
    assert "CONJ(SU2)" in str(ei.value)


def test_aut_z5_structure():
    cm = crossed_module("AUT(Z5)")
    assert cm.G.order == 4 and cm.H.order == 5
    # t is trivial (Z5 abelian, no inner automorphisms)
    assert all(cm.t(h) == cm.G.identity for h in cm.H.elements())
    rep = validate_crossed_module(cm, mode="exhaustive")
    assert rep.passed


@pytest.mark.parametrize("name", shipped_matrix_names())
def test_act_algebra_on_stacks_has_the_single_call_bits(name):
    cm = crossed_module(name)
    rng = np.random.default_rng(9)
    g = np.stack([cm.G.random(rng) for _ in range(200)])
    x = np.stack([cm.H.algebra.random(rng) for _ in range(200)])
    got = cm.act_algebra(g, x)
    want = np.stack([cm.act_algebra(a, b) for a, b in zip(g, x)])
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("name", shipped_matrix_names())
def test_dalpha_group_on_stacks_has_the_single_call_bits(name):
    # a stack of 2 matrices of size 2 is where a transpose of all axes
    # still broadcasts, to wrong values
    cm = crossed_module(name)
    rng = np.random.default_rng(12)
    for n in (2, 5):
        y = np.stack([cm.G.algebra.random(rng) for _ in range(n)])
        h = np.stack([cm.H.random(rng) for _ in range(n)])
        got = cm.dalpha_group(y, h)
        want = np.stack([cm.dalpha_group(a, b) for a, b in zip(y, h)])
        assert got.shape == want.shape
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("spec", ["GERBE(Z99999999999)", "AUT(Z101)", "GERBE(Z0)",
                                  "AUT(Z" + "9" * 5000 + ")"])
def test_cyclic_orders_beyond_the_cap_are_refused(spec):
    with pytest.raises(GroupDomainError, match="cyclic order must lie between 1 and 100"):
        crossed_module(spec)


def test_the_cap_itself_is_admitted(monkeypatch):
    monkeypatch.setattr(crossed, "MAX_CYCLIC_ORDER", 7)
    assert crossed_module("AUT(Z07)").H.order == 7
    assert crossed_module("GERBE(Z7)").H.order == 7
    with pytest.raises(GroupDomainError):
        crossed_module("GERBE(Z8)")


# ------------------------------------------------ validation on compiled tables

def _validate_by_loop(cm):
    """The exhaustive report, tuple by tuple on the groups' scalar accessors."""
    G, H = cm.G, cm.H
    gs, hs = list(G.elements()), list(H.elements())
    t, alpha = cm.t, cm.alpha
    checks = [
        ("t-homomorphism", [(a, b) for a in hs for b in hs],
         lambda h1, h2: t(H.mul(h1, h2)) == G.mul(t(h1), t(h2)),
         lambda h1, h2: {"h1": H.label(h1), "h2": H.label(h2)}),
        ("alpha-identity", [(h,) for h in hs],
         lambda h: alpha(G.identity, h) == h,
         lambda h: {"h": H.label(h)}),
        ("alpha-automorphism", [(g, a, b) for g in gs for a in hs for b in hs],
         lambda g, h1, h2: alpha(g, H.mul(h1, h2)) == H.mul(alpha(g, h1), alpha(g, h2)),
         lambda g, h1, h2: {"g": G.label(g), "h1": H.label(h1), "h2": H.label(h2)}),
        ("alpha-action", [(a, b, h) for a in gs for b in gs for h in hs],
         lambda g1, g2, h: alpha(G.mul(g1, g2), h) == alpha(g1, alpha(g2, h)),
         lambda g1, g2, h: {"g1": G.label(g1), "g2": G.label(g2), "h": H.label(h)}),
        ("equivariance", [(g, h) for g in gs for h in hs],
         lambda g, h: t(alpha(g, h)) == G.conj(g, t(h)),
         lambda g, h: {"g": G.label(g), "h": H.label(h)}),
        ("peiffer", [(a, b) for a in hs for b in hs],
         lambda h1, h2: alpha(t(h1), h2) == H.conj(h1, h2),
         lambda h1, h2: {"h1": H.label(h1), "h2": H.label(h2)}),
    ]
    rep = ValidationReport(f"crossed module axioms: {cm.name}")
    for name, cases, holds, describe in checks:
        bad = [case for case in cases if not holds(*case)]
        rep.add(name, not bad, witness=describe(*bad[0]) if bad else None,
                detail=f"{len(bad)} violations" if bad else None)
    return rep


def _equivariance_broken():
    # Z/2 swapping the factors of the Klein group, t the first projection:
    # t(alpha(1)(a, b)) = b differs from t(a, b) = a
    klein = [[a ^ b for b in range(4)] for a in range(4)]
    return from_tables({"name": "swap-klein",
                        "G": {"table": [[0, 1], [1, 0]]},
                        "H": {"table": klein},
                        "t": [0, 0, 1, 1],
                        "alpha": [[0, 1, 2, 3], [0, 2, 1, 3]]})


@pytest.mark.parametrize("name", shipped_finite_names() + ["PEIFFER_BROKEN(S3)", "swap-klein"])
def test_exhaustive_validation_equals_the_tuple_loop(name, monkeypatch):
    cm = _equivariance_broken() if name == "swap-klein" else crossed_module(name)
    want = _validate_by_loop(cm).to_dict()
    # blocks of 1, 7 and 100 cases cut the index grids inside an axis; with
    # 1 and 7, the first failure of swap-klein lies past the first block
    for block in (1, 7, 100, crossed.BLOCK):
        monkeypatch.setattr(crossed, "BLOCK", block)
        assert validate_crossed_module(cm, mode="exhaustive").to_dict() == want


def test_peiffer_fixture_counts_and_witness():
    peiffer = validate_crossed_module(peiffer_violating_fixture()).check("peiffer")
    assert peiffer.detail == "18 violations"
    assert peiffer.witness == {"h1": "(23)", "h2": "(12)"}
    broken = validate_crossed_module(_equivariance_broken())
    assert "equivariance" in [c.name for c in broken.failures]


# ------------------------------------------------------ least generating sets

def _generated(tab, gens):
    """Every product of generators, by breadth-first search from the identity."""
    seen, frontier = {tab.identity}, [tab.identity]
    while frontier:
        reached = {int(tab.mul(a, x)) for a in frontier for x in gens}
        frontier = sorted(reached - seen)
        seen |= reached
    return seen


@pytest.mark.parametrize("name", shipped_finite_names())
def test_least_generators_span_each_finite_group(name):
    tables = crossed_module(name).compiled()
    for tab in (tables.G, tables.H):
        gens = tab.generators
        assert _generated(tab, gens) == set(range(tab.order))
        # least-first: each is the least element the earlier ones miss
        for n, x in enumerate(gens):
            missed = set(range(tab.order)) - _generated(tab, gens[:n])
            assert x == min(missed)


def test_generator_counts():
    def counts(name):
        tables = crossed_module(name).compiled()
        return len(tables.G.generators), len(tables.H.generators)
    assert counts("GERBE(Z5)") == (0, 1)
    assert counts("FLIP(Z3)") == (1, 1)
    assert counts("CONJ(S3)") == (2, 2)
    assert counts("GERBE(Z100)") == (0, 1)


# ------------------------------------------------ the tables behind a finite module

def _aut_of(base):
    if base == "S4":  # not in the catalog
        return crossed._aut_finite_module("AUT(S4)", FiniteGroup.symmetric(4))
    return crossed_module(f"AUT({base})")


@pytest.mark.parametrize("base", [f"Z{n}" for n in range(1, 101)] + ["S3", "S4"])
def test_aut_module_matches_an_independent_oracle(base):
    cm = _aut_of(base)
    B, A = cm.H, cm.G
    n, autos = B.order, automorphisms(B)
    assert A.order == len(autos)
    # alpha(g, .) is the g-th automorphism
    for g, phi in enumerate(autos):
        assert tuple(cm.alpha(g, x) for x in range(n)) == phi
    # t(h) is conjugation by h
    conj = [tuple(B.mul(B.mul(h, x), B.inv(h)) for x in range(n)) for h in range(n)]
    for h in range(n):
        assert autos[cm.t(h)] == conj[h]
    # the product applies its right factor first: (p q)[x] = p[q[x]]
    for p, phi in enumerate(autos):
        for q, psi in enumerate(autos):
            assert autos[A.mul(p, q)] == tuple(phi[psi[x]] for x in range(n))
    if base.startswith("Z"):
        want = [f"x->{phi[1] if n > 1 else 0}x" for phi in autos]
    else:  # the first element that conjugates as phi does, else a number
        want = [next((f"conj[{B.label(k)}]" for k in range(n) if conj[k] == phi), f"auto{i}")
                for i, phi in enumerate(autos)]
    assert A.names == want


@pytest.mark.parametrize("name", shipped_finite_names() + ["swap-klein"])
def test_scalar_accessors_read_the_compiled_tables(name):
    cm = _equivariance_broken() if name == "swap-klein" else crossed_module(name)
    tables = cm.compiled()
    for h in cm.H.elements():
        assert type(cm.t(h)) is int and cm.t(h) == tables.t_table[h]
        for g in cm.G.elements():
            value = cm.alpha(g, h)
            assert type(value) is int and value == tables.alpha_table[g, h]


@pytest.mark.parametrize("call", [lambda cm: cm.alpha(-1, 0), lambda cm: cm.alpha(0, 6),
                                  lambda cm: cm.t(-1), lambda cm: cm.t(True)])
def test_scalar_accessors_refuse_non_elements(call):
    with pytest.raises(GroupDomainError):
        call(crossed_module("CONJ(S3)"))
