"""Nerve combinatorics, cocycle checks, coboundary moves, finite censuses.

The engine composes every diagram with generic 2-cell operations. The
hand-expanded formulas live here, and only here, as independent oracles:

    tetrahedron   alpha(g_kl^-1)(h_ijk) h_ikl = h_jkl h_ijl
    left unit     h_iij = alpha(g_ij^-1)(k_i)
    right unit    h_ijj = k_j
    changed h     h' = alpha((g'_ij g'_jk)^-1)( alpha(l_i g_ik)(b_ik)
                    alpha(l_i g_ij g_jk)(h_ijk) alpha(l_i g_ij g_jk)(b_jk)^-1
                    alpha(l_i g_ij)(b_ij)^-1 )
"""
import functools
import itertools
import json
import random
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import twogauge.cech as cech
import twogauge.crossed as crossed
from twogauge.cech import (CoverNerve, GluingCocycle, NERVE_FIXTURES,
                           check_tetrahedron, check_triangle, check_unit_laws,
                           classify_finite, coboundary_act, nerve)
from twogauge.crossed import crossed_module, shipped_finite_names
from twogauge.errors import BudgetExceeded, ConfigError
from twogauge.maps import ExpParamMap
from twogauge.report import NO_SAMPLES

S3 = crossed_module("CONJ(S3)")
Z2G = crossed_module("GERBE(Z2)")
Z3G = crossed_module("GERBE(Z3)")
FLIP = crossed_module("FLIP(Z3)")


def forced_cocycle(cm, nv, seed):
    # t = id for CONJ modules, so the triangle law determines h from g
    rng = random.Random(seed)
    G = cm.G
    g = {d: rng.randrange(G.order) for d in nv.doubles}
    h = {(i, j, k): G.mul(G.inv(G.mul(g[(i, j)], g[(j, k)])), g[(i, k)])
         for (i, j, k) in nv.triples}
    return GluingCocycle(cm, nv, g, h)


def hand_tetra(cm, g, h, quad):
    i, j, k, l = quad
    H = cm.H
    lhs = H.mul(cm.alpha(cm.G.inv(g[(k, l)]), h[(i, j, k)]), h[(i, k, l)])
    return lhs == H.mul(h[(j, k, l)], h[(i, j, l)])


def hand_move(cm, doubles, triples, g, h, lam, b):
    G, H = cm.G, cm.H
    la = lambda i: lam.get(i, G.identity)
    bb = lambda d: b.get(d, H.identity)
    g2 = {d: G.mul(G.mul(G.mul(la(d[0]), g[d]), cm.t(bb(d))), G.inv(la(d[1])))
          for d in doubles}
    h2 = {}
    for (i, j, k) in triples:
        li = la(i)
        lead = G.mul(li, G.mul(g[(i, j)], g[(j, k)]))
        big = H.mul(H.mul(H.mul(
            cm.alpha(G.mul(li, g[(i, k)]), bb((i, k))),
            cm.alpha(lead, h[(i, j, k)])),
            H.inv(cm.alpha(lead, bb((j, k))))),
            H.inv(cm.alpha(G.mul(li, g[(i, j)]), bb((i, j)))))
        src = G.mul(g2[(i, j)], g2[(j, k)])
        h2[(i, j, k)] = cm.alpha(G.inv(src), big)
    return g2, h2


def census_by_hand(cm, nv, act=None):
    """Full census with direct formulas only, no 2-cell calls anywhere.

    `act(state, lam, b)` replaces the hand-written coboundary move when given.
    """
    G, H = cm.G, cm.H
    doubles = sorted(nv.doubles)
    triples = sorted(nv.triples)
    quads = sorted(nv.quads)
    pre = {}
    for hv in H.elements():
        pre.setdefault(cm.t(hv), []).append(hv)
    states = []
    for gs in itertools.product(G.elements(), repeat=len(doubles)):
        g = dict(zip(doubles, gs))
        opts = []
        for (i, j, k) in triples:
            c = G.mul(G.inv(G.mul(g[(i, j)], g[(j, k)])), g[(i, k)])
            row = pre.get(c, [])
            if not row:
                break
            opts.append(row)
        else:
            for hs in itertools.product(*opts):
                h = dict(zip(triples, hs))
                if all(hand_tetra(cm, g, h, q) for q in quads):
                    states.append((gs, hs))

    def move(state, lam, b):
        g = dict(zip(doubles, state[0]))
        h = dict(zip(triples, state[1]))
        g2, h2 = hand_move(cm, doubles, triples, g, h, lam, b)
        return (tuple(g2[d] for d in doubles), tuple(h2[t] for t in triples))

    move = act or move

    moves = [({i: lv}, {}) for i in nv.charts
             for lv in G.elements() if lv != G.identity]
    moves += [({}, {d: bv}) for d in doubles
              for bv in H.elements() if bv != H.identity]
    index = {s: n for n, s in enumerate(states)}
    seen = [False] * len(states)
    reps = []
    for start in range(len(states)):
        if seen[start]:
            continue
        queue = deque([start])
        seen[start] = True
        members = [start]
        while queue:
            cur = queue.popleft()
            for lam, b in moves:
                nxt = index[move(states[cur], lam, b)]
                if not seen[nxt]:
                    seen[nxt] = True
                    members.append(nxt)
                    queue.append(nxt)
        reps.append(min(states[m] for m in members))
    reps.sort()

    def enc(state):
        return {"g": {",".join(map(str, d)): int(state[0][n])
                      for n, d in enumerate(doubles)},
                "h": {",".join(map(str, t)): int(state[1][n])
                      for n, t in enumerate(triples)}}

    return {"cocycles": len(states), "orbits": len(reps),
            "representatives": [enc(s) for s in reps]}


# --------------------------------------------------------------- nerves

def test_nerve_rejects_missing_faces():
    with pytest.raises(ConfigError) as exc:
        CoverNerve([0, 1, 2], doubles=[(0, 1), (1, 2)], triples=[(0, 1, 2)])
    assert "(0, 2)" in str(exc.value)
    with pytest.raises(ConfigError):
        CoverNerve(range(4), doubles=list(itertools.combinations(range(4), 2)),
                   triples=[(0, 1, 2)], quads=[(0, 1, 2, 3)])


def test_nerve_rejects_unknown_charts_and_bad_arity():
    with pytest.raises(ConfigError):
        CoverNerve([0, 1], doubles=[(0, 7)])
    with pytest.raises(ConfigError):
        CoverNerve([0, 1], doubles=[(0, 1, 1)])
    with pytest.raises(ConfigError):
        CoverNerve([0, 0])


def test_nerve_refuses_samples_for_undeclared_overlaps():
    doubles = [(0, 1), (0, 2), (1, 2)]
    point = [np.array([0.5, 0.5])]
    with pytest.raises(ConfigError, match=r"\(0, 2, 1\)"):
        CoverNerve([0, 1, 2], doubles=doubles, triples=[(0, 1, 2)],
                   samples={(0, 2, 1): point})
    nv = CoverNerve([0, 1, 2], doubles=doubles, triples=[(0, 1, 2)],
                    samples={(0, 1, 2): point})
    assert nv.points((0, 1, 2)) == point and nv.points((0, 1)) == [None]


def test_shipped_nerves_have_expected_shapes():
    tet = nerve("tetrahedron")
    assert (len(tet.charts), len(tet.doubles), len(tet.triples), len(tet.quads)) \
        == (4, 6, 4, 1)
    sph = nerve("sphere")
    assert len(sph.triples) == 4 and not sph.quads
    units = nerve("pair-with-units")
    assert not units.is_strict and tet.is_strict
    for name in NERVE_FIXTURES:
        nerve(name)
    with pytest.raises(ConfigError):
        nerve("klein-bottle")


def test_missing_data_is_reported_in_full():
    nv = nerve("triangle")
    with pytest.raises(ConfigError) as exc:
        GluingCocycle(S3, nv, g={(0, 1): 0}, h={})
    message = str(exc.value)
    assert "(0, 2)" in message and "(1, 2)" in message and "(0, 1, 2)" in message


def test_stray_keys_are_rejected():
    nv = nerve("two-charts")
    with pytest.raises(ConfigError):
        GluingCocycle(S3, nv, g={(0, 1): 0, (1, 0): 0})
    with pytest.raises(ConfigError):
        GluingCocycle(S3, nv, g={(0, 1): 0}, k={"west": 0})


def test_unit_correctors_default_to_identity():
    nv = nerve("two-charts")
    data = GluingCocycle(S3, nv, g={(0, 1): 4})
    assert data.k_at(0) == S3.H.identity


# -------------------------------------------------------------- triangles

def test_triangle_accepts_forced_data():
    for seed in range(5):
        data = forced_cocycle(S3, nerve("tetrahedron"), seed)
        assert check_triangle(data).passed


def test_triangle_failure_carries_witness():
    data = forced_cocycle(S3, nerve("tetrahedron"), 11)
    h = dict(data.h)
    h[(0, 1, 2)] = S3.G.mul(h[(0, 1, 2)], 3)
    bad = GluingCocycle(S3, data.nerve, data.g, h)
    rep = check_triangle(bad)
    assert not rep.passed
    assert len(rep.failures) == 1
    assert rep.failures[0].witness["triple"] == [0, 1, 2]
    assert rep.check("triangle(0,1,3)").verdict == "PASS"


def test_trivial_t_triangle_constrains_only_g():
    # FLIP has trivial t, so any h passes when g is a 1-cocycle and none
    # passes otherwise
    nv = nerve("triangle")
    for h_val in range(3):
        data = GluingCocycle(FLIP, nv, g={(0, 1): 1, (1, 2): 1, (0, 2): 0},
                             h={(0, 1, 2): h_val})
        assert check_triangle(data).passed
    bad = GluingCocycle(FLIP, nv, g={(0, 1): 1, (1, 2): 1, (0, 2): 1},
                        h={(0, 1, 2): 0})
    assert not check_triangle(bad).passed


# ------------------------------------------------------------ tetrahedron

@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=5), min_size=6, max_size=6))
def test_tetrahedron_is_automatic_when_t_injective(gvals):
    nv = nerve("tetrahedron")
    G = S3.G
    g = dict(zip(sorted(nv.doubles), gvals))
    h = {(i, j, k): G.mul(G.inv(G.mul(g[(i, j)], g[(j, k)])), g[(i, k)])
         for (i, j, k) in nv.triples}
    data = GluingCocycle(S3, nv, g, h)
    assert check_triangle(data).passed
    assert check_tetrahedron(data).passed


@pytest.mark.parametrize("cm,order", [(Z2G, 2), (Z3G, 3)])
def test_abelian_tetrahedron_is_the_additive_rule_exhaustively(cm, order):
    nv = nerve("tetrahedron")
    triples = sorted(nv.triples)
    g = {d: cm.G.identity for d in nv.doubles}
    for hs in itertools.product(range(order), repeat=4):
        h = dict(zip(triples, hs))
        additive = (h[(0, 1, 2)] + h[(0, 2, 3)] - h[(1, 2, 3)] - h[(0, 1, 3)]) % order == 0
        data = GluingCocycle(cm, nv, g, h)
        assert check_tetrahedron(data).passed == additive


def test_twisted_tetrahedron_matches_hand_formula_exhaustively():
    # FLIP has a nontrivial action and a non-injective t, so this is the
    # case that actually discriminates the pasting from a wrong formula
    nv = nerve("tetrahedron")
    doubles, triples = sorted(nv.doubles), sorted(nv.triples)
    G, H = FLIP.G, FLIP.H
    agree = total = 0
    for gs in itertools.product(G.elements(), repeat=6):
        g = dict(zip(doubles, gs))
        if any(G.mul(g[(i, j)], g[(j, k)]) != g[(i, k)] for (i, j, k) in triples):
            continue
        for hs in itertools.product(H.elements(), repeat=4):
            h = dict(zip(triples, hs))
            data = GluingCocycle(FLIP, nv, g, h)
            engine = check_tetrahedron(data).passed
            hand = hand_tetra(FLIP, g, h, (0, 1, 2, 3))
            assert engine == hand
            total += 1
            agree += engine
    assert total == 648 and agree == 216


def test_tetrahedron_failure_modes():
    data = forced_cocycle(S3, nerve("tetrahedron"), 2)
    # corrupting h_012 breaks the chain of targets, so the sides do not
    # even compose
    h = dict(data.h)
    h[(0, 1, 2)] = S3.G.mul(h[(0, 1, 2)], 1)
    rep = check_tetrahedron(GluingCocycle(S3, data.nerve, data.g, h))
    assert not rep.passed
    assert "triangle" in rep.failures[0].detail
    # corrupting h_023 leaves both sides composable and they disagree
    h2 = dict(data.h)
    h2[(0, 2, 3)] = S3.G.mul(h2[(0, 2, 3)], 1)
    rep2 = check_tetrahedron(GluingCocycle(S3, data.nerve, data.g, h2))
    assert not rep2.passed
    assert rep2.failures[0].detail is None
    assert rep2.failures[0].witness["quad"] == [0, 1, 2, 3]


# -------------------------------------------------------------- unit laws

def test_unit_laws_pass_for_matching_correctors():
    # abelian normalization: k_i = c forces h_iij = h_ijj = c
    nv = nerve("pair-with-units")
    c = 2
    data = GluingCocycle(Z3G, nv, g={d: 0 for d in nv.doubles},
                         h={(0, 0, 1): c, (0, 1, 1): c}, k={0: c, 1: c})
    rep = check_unit_laws(data)
    assert rep.passed
    assert {ch.name for ch in rep.checks} == {
        "unit-target(0)", "unit-target(1)", "left-unit(0,1)", "right-unit(0,1)"}


def test_unit_laws_flag_mismatch():
    nv = nerve("pair-with-units")
    data = GluingCocycle(Z3G, nv, g={d: 0 for d in nv.doubles},
                         h={(0, 0, 1): 2, (0, 1, 1): 1}, k={0: 2, 1: 2})
    rep = check_unit_laws(data)
    assert [ch.name for ch in rep.failures] == ["right-unit(0,1)"]


def test_unit_laws_skip_without_degenerate_overlaps():
    data = GluingCocycle(S3, nerve("two-charts"), g={(0, 1): 3})
    rep = check_unit_laws(data)
    assert rep.passed and rep.checks[0].verdict == "SKIPPED"


def test_unit_law_oracles_nonabelian():
    # oracle first: with t = id the degenerate triangles force
    # k_i = g_ii^-1, h_iij = alpha(g_ij^-1)(k_i), h_ijj = k_j
    G = S3.G
    nv = nerve("pair-with-units")
    for g00, g01, g11 in [(1, 3, 2), (4, 5, 3), (2, 0, 5)]:
        k = {0: G.inv(g00), 1: G.inv(g11)}
        h = {(0, 0, 1): G.conj(G.inv(g01), k[0]), (0, 1, 1): k[1]}
        data = GluingCocycle(S3, nv, g={(0, 0): g00, (0, 1): g01, (1, 1): g11},
                             h=h, k=k)
        assert check_triangle(data).passed
        assert check_unit_laws(data).passed
        wrong = dict(h)
        wrong[(0, 0, 1)] = G.mul(h[(0, 0, 1)], 1)
        bad = GluingCocycle(S3, nv, data.g, wrong, k)
        rep = check_unit_laws(bad)
        assert [ch.name for ch in rep.failures] == ["left-unit(0,1)"]


@pytest.mark.parametrize("chart,law,triple", [(0, "left-unit(0,1)", [0, 0, 1]),
                                               (1, "right-unit(0,1)", [0, 1, 1])])
def test_unit_law_failures_name_their_triple(chart, law, triple):
    G = S3.G
    g = {(0, 0): 1, (0, 1): 3, (1, 1): 2}
    k = {0: G.inv(1), 1: G.inv(2)}
    h = {(0, 0, 1): G.conj(G.inv(3), k[0]), (0, 1, 1): k[1]}
    assert check_unit_laws(GluingCocycle(S3, nerve("pair-with-units"), g, h, k)).passed
    k[chart] = G.mul(k[chart], 1)
    rep = check_unit_laws(GluingCocycle(S3, nerve("pair-with-units"), g, h, k))
    assert [ch.name for ch in rep.failures] == [f"unit-target({chart})", law]
    assert rep.check(law).to_dict()["witness"] == {"triple": triple, "point": None}


# ------------------------------------------------------------- coboundary

def test_identity_change_returns_equal_data():
    data = forced_cocycle(S3, nerve("tetrahedron"), 5)
    out = coboundary_act(data)
    assert out.g == data.g and out.h == data.h


def test_coboundary_round_trip():
    G = S3.G
    data = forced_cocycle(S3, nerve("tetrahedron"), 6)
    rng = random.Random(6)
    lam = {i: rng.randrange(G.order) for i in data.nerve.charts}
    b = {d: rng.randrange(G.order) for d in data.nerve.doubles}
    moved = coboundary_act(data, lam, b)
    back = coboundary_act(moved, {i: G.inv(v) for i, v in lam.items()},
                          {d: S3.H.inv(S3.alpha(lam[d[1]], v))
                           for d, v in b.items()})
    assert back.g == data.g and back.h == data.h


def test_random_changes_preserve_validity():
    G = S3.G
    rng = random.Random(0)
    data = forced_cocycle(S3, nerve("tetrahedron"), 7)
    for _ in range(100):
        lam = {i: rng.randrange(G.order) for i in data.nerve.charts}
        b = {d: rng.randrange(G.order) for d in data.nerve.doubles}
        data = coboundary_act(data, lam, b, check=False)
        assert check_triangle(data).passed
        assert check_tetrahedron(data).passed


def test_changed_h_matches_hand_formula():
    rng = random.Random(9)
    nv = nerve("tetrahedron")
    doubles, triples = sorted(nv.doubles), sorted(nv.triples)
    for cm, seed in [(S3, 1), (S3, 2), (FLIP, 3), (FLIP, 4)]:
        if cm is FLIP:
            hand = census_by_hand(cm, nv)
            pick = hand["representatives"][0]
            g = {d: pick["g"][",".join(map(str, d))] for d in doubles}
            h = {t: pick["h"][",".join(map(str, t))] for t in triples}
            data = GluingCocycle(cm, nv, g, h)
        else:
            data = forced_cocycle(cm, nv, seed)
        lam = {i: rng.randrange(cm.G.order) for i in nv.charts}
        b = {d: rng.randrange(cm.H.order) for d in doubles}
        moved = coboundary_act(data, lam, b)
        g2, h2 = hand_move(cm, doubles, triples, data.g, data.h, lam, b)
        assert moved.g == g2 and moved.h == h2


def test_changes_compose():
    # two successive changes equal one composite change with
    # lam'' = lam' lam and b''_ij = b_ij alpha(lam_j^-1)(b'_ij)
    G, H = S3.G, S3.H
    rng = random.Random(13)
    data = forced_cocycle(S3, nerve("tetrahedron"), 8)
    lam1 = {i: rng.randrange(G.order) for i in data.nerve.charts}
    b1 = {d: rng.randrange(H.order) for d in data.nerve.doubles}
    lam2 = {i: rng.randrange(G.order) for i in data.nerve.charts}
    b2 = {d: rng.randrange(H.order) for d in data.nerve.doubles}
    stepwise = coboundary_act(coboundary_act(data, lam1, b1), lam2, b2)
    lam12 = {i: G.mul(lam2[i], lam1[i]) for i in lam1}
    b12 = {d: H.mul(b1[d], S3.alpha(G.inv(lam1[d[1]]), b2[d])) for d in b1}
    joined = coboundary_act(data, lam12, b12)
    assert stepwise.g == joined.g and stepwise.h == joined.h


def test_abelian_change_is_additive():
    # trivial action and trivial t reduce the pasting to the usual
    # alternating sum h' = h + b_ik - b_ij - b_jk
    nv = nerve("tetrahedron")
    rng = random.Random(21)
    g = {d: 0 for d in nv.doubles}
    h = {(0, 1, 2): 1, (0, 1, 3): 2, (0, 2, 3): 1, (1, 2, 3): 0}
    data = GluingCocycle(Z3G, nv, g, h)
    b = {d: rng.randrange(3) for d in nv.doubles}
    moved = coboundary_act(data, None, b)
    for (i, j, k) in nv.triples:
        want = (h[(i, j, k)] + b[(i, k)] - b[(i, j)] - b[(j, k)]) % 3
        assert moved.h[(i, j, k)] == want


def test_unit_correctors_transform():
    nv = nerve("pair-with-units")
    c = 1
    data = GluingCocycle(Z3G, nv, g={d: 0 for d in nv.doubles},
                         h={(0, 0, 1): c, (0, 1, 1): c}, k={0: c, 1: c})
    assert check_unit_laws(data).passed
    b = {(0, 0): 2, (0, 1): 1, (1, 1): 1}
    moved = coboundary_act(data, None, b)
    # trivial action: k'_i = k_i - b_ii, and the unit laws must survive
    assert moved.k[0] == (c - b[(0, 0)]) % 3
    assert moved.k[1] == (c - b[(1, 1)]) % 3
    assert check_unit_laws(moved).passed


def test_coboundary_requires_finite_mode():
    su2 = crossed_module("CONJ(SU2)")
    nv = nerve("two-charts")
    data = GluingCocycle(su2, nv, g={(0, 1): np.eye(2, dtype=complex)})
    with pytest.raises(ConfigError):
        coboundary_act(data, None, None)


# ------------------------------------------------------------- continuum

def _su2_cover():
    su2 = crossed_module("CONJ(SU2)")
    nv = nerve("tetrahedron")
    pts = [np.array([s, 1.0 - s]) for s in np.linspace(0.1, 0.9, 4)]
    nv.samples = {ov: pts for ov in nv.doubles + nv.triples + nv.quads}
    texts = {
        (0, 1): ["0.3 * x1", "0.1 * x2", "0"],
        (0, 2): ["0.5 * x2", "0", "0.1 * x1"],
        (0, 3): ["0.2 * x1 * x2", "0.3 * x1", "0"],
        (1, 2): ["0", "0.2 * x1", "0.4 * x2"],
        (1, 3): ["0.1 * x2", "0", "0.25 * x1"],
        (2, 3): ["0.15 * x1", "0.05 * x2", "0.2 * x1"],
    }
    gmaps = {d: ExpParamMap.from_exprs(su2.G, 2, t) for d, t in texts.items()}

    def hfun(i, j, k):
        def f(p):
            a, b, c = gmaps[(i, j)].at(p), gmaps[(j, k)].at(p), gmaps[(i, k)].at(p)
            return np.conj(a @ b).T @ c
        return f

    return su2, nv, gmaps, {t: hfun(*t) for t in nv.triples}


def test_continuum_cocycle_passes_pointwise():
    su2, nv, gmaps, h = _su2_cover()
    data = GluingCocycle(su2, nv, g=gmaps, h=h)
    rep = check_triangle(data)
    assert rep.passed and rep.max_residual < 1e-12
    rep2 = check_tetrahedron(data)
    assert rep2.passed and rep2.max_residual < 1e-12


def test_continuum_corruption_is_detected():
    from scipy.linalg import expm
    su2, nv, gmaps, h = _su2_cover()
    clean = h[(0, 1, 2)]
    bump = expm(np.array([[0.02j, 0.01], [-0.01, -0.02j]]))
    h[(0, 1, 2)] = lambda p: clean(p) @ bump
    data = GluingCocycle(su2, nv, g=gmaps, h=h)
    rep = check_triangle(data)
    assert not rep.passed
    assert rep.check("triangle(0,1,2)").verdict == "FAIL"
    assert rep.check("triangle(0,1,3)").verdict == "PASS"
    rep2 = check_tetrahedron(data)
    assert not rep2.passed
    assert "triangle" in rep2.failures[0].detail


def test_continuum_unit_laws_pass_and_name_a_failing_triple():
    from scipy.linalg import expm
    su2 = crossed_module("CONJ(SU2)")
    nv = nerve("pair-with-units")
    pts = [np.array([s, 1.0 - s]) for s in np.linspace(0.1, 0.9, 4)]
    nv.samples = {ov: pts for ov in nv.doubles + nv.triples}
    texts = {(0, 0): ["0.3 * x1", "0.1 * x2", "0"],
             (0, 1): ["0.5 * x2", "0", "0.1 * x1"],
             (1, 1): ["0", "0.2 * x1", "0.4 * x2"]}
    g = {d: ExpParamMap.from_exprs(su2.G, 2, t) for d, t in texts.items()}

    def inverse(d):
        return lambda p: np.conj(g[d].at(p)).T

    # with t = id the unit laws force k_i = g_ii^-1, h_iij = g_ij^-1 k_i g_ij
    # and h_ijj = k_j
    k = {0: inverse((0, 0)), 1: inverse((1, 1))}
    h = {(0, 0, 1): lambda p: inverse((0, 1))(p) @ k[0](p) @ g[(0, 1)].at(p),
         (0, 1, 1): k[1]}
    clean = GluingCocycle(su2, nv, g, h, k)
    assert check_triangle(clean).passed
    rep = check_unit_laws(clean)
    assert [ch.verdict for ch in rep.checks] == ["PASS"] * 4
    assert rep.max_residual < 1e-12
    bump = expm(np.array([[0.02j, 0.01], [-0.01, -0.02j]]))
    bumped = GluingCocycle(su2, nv, g, h, {0: k[0], 1: lambda p: k[1](p) @ bump})
    rep = check_unit_laws(bumped)
    assert [ch.name for ch in rep.failures] == ["unit-target(1)", "right-unit(0,1)"]
    witness = rep.check("right-unit(0,1)").witness
    assert witness["triple"] == [0, 1, 1]
    assert any(witness["point"] is p for p in pts)


def test_empty_sample_lists_skip_every_gluing_law():
    su2 = crossed_module("CONJ(SU2)")
    eye = np.eye(2, dtype=complex)
    checks = []
    for name, checkers in (("tetrahedron", (check_triangle, check_tetrahedron)),
                           ("pair-with-units", (check_triangle, check_unit_laws))):
        nv = nerve(name)
        nv.samples = {ov: [] for ov in nv.doubles + nv.triples + nv.quads}
        # h = 2 I breaks every law that a sample point would test
        data = GluingCocycle(su2, nv, g={d: eye for d in nv.doubles},
                             h={t: 2 * eye for t in nv.triples},
                             k={i: 2 * eye for i in nv.charts})
        checks += [ch for checker in checkers for ch in checker(data).checks]
    assert len(checks) == 5 + 2 + 4
    assert all(ch.verdict == "SKIPPED" and ch.detail == NO_SAMPLES for ch in checks)


# ----------------------------------------------------------------- census

def test_census_matches_independent_enumeration():
    jobs = [(Z2G, "sphere", 16, 2), (S3, "two-charts", 6, 1),
            (FLIP, "tetrahedron", 216, 1)]
    for cm, name, n_cocycles, n_orbits in jobs:
        nv = nerve(name)
        hand = census_by_hand(cm, nv)
        engine = classify_finite(cm, nv)
        assert engine == hand
        assert engine["cocycles"] == n_cocycles
        assert engine["orbits"] == n_orbits


def test_single_chart_has_one_class():
    census = classify_finite(S3, nerve("single-chart"))
    assert census == {"cocycles": 1, "orbits": 1,
                      "representatives": [{"g": {}, "h": {}}]}


def test_budget_guard():
    with pytest.raises(BudgetExceeded) as exc:
        classify_finite(S3, nerve("tetrahedron"))
    assert exc.value.size == 6 ** 10
    assert exc.value.budget == 10 ** 7


def test_classification_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        classify_finite(crossed_module("CONJ(SU2)"), nerve("two-charts"))
    with pytest.raises(ConfigError):
        classify_finite(S3, nerve("pair-with-units"))


def test_classification_refuses_a_reversed_overlap_by_name():
    # (1, 0) beside (0, 1) would be an unknown of its own, with no inverse law
    reversed_double = CoverNerve([0, 1, 2], doubles=[(0, 1), (1, 2), (0, 2), (1, 0)],
                                 triples=[(0, 1, 2)])
    reversed_triple = CoverNerve([0, 1, 2], doubles=[(0, 1), (1, 2), (0, 2), (2, 1)],
                                 triples=[(0, 2, 1)])
    for nv, named in ((reversed_double, "(1, 0)"), (reversed_triple, "(2, 1)")):
        assert not nv.is_strict
        with pytest.raises(ConfigError) as exc:
            classify_finite(FLIP, nv)
        assert str(exc.value) == \
            f"classification expects strictly increasing overlaps, got {named}"
    # a degenerate overlap keeps the refusal that the census digests hold
    with pytest.raises(ConfigError) as exc:
        classify_finite(FLIP, nerve("pair-with-units"))
    assert str(exc.value) == "classification expects strictly increasing overlaps"


def test_cocycle_refuses_a_reversed_overlap_by_name():
    # g(1, 0) would be a value of its own: with only the triple (0, 1, 2)
    # declared, both 0 and 1 passed every check, though only g(0, 1)^-1 fits
    nv = CoverNerve([0, 1, 2], doubles=[(0, 1), (1, 2), (0, 2), (1, 0)],
                    triples=[(0, 1, 2)])
    for g10 in (0, 1):
        with pytest.raises(ConfigError) as exc:
            GluingCocycle(FLIP, nv, {(0, 1): 0, (1, 2): 0, (0, 2): 0, (1, 0): g10},
                          {(0, 1, 2): 0})
        assert exc.value.errors == ["overlap (1, 0) lists its charts out of order"]
    # a reversed triple is named too, after the double
    nv = CoverNerve([0, 1, 2, 3], doubles=list(itertools.combinations(range(4), 2))
                    + [(1, 0)], triples=[(1, 0, 2), (0, 1, 2)])
    with pytest.raises(ConfigError) as exc:
        GluingCocycle(FLIP, nv, {d: 0 for d in nv.doubles}, {t: 0 for t in nv.triples})
    assert exc.value.errors == ["overlap (1, 0) lists its charts out of order",
                                "overlap (1, 0, 2) lists its charts out of order"]
    # degenerate unit-law overlaps are in non-decreasing order and stay accepted
    units = nerve("pair-with-units")
    data = GluingCocycle(S3, units, {d: 0 for d in units.doubles},
                         {t: 0 for t in units.triples})
    assert check_unit_laws(data).passed


def test_census_is_deterministic():
    a = classify_finite(FLIP, nerve("sphere"))
    b = classify_finite(FLIP, nerve("sphere"))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_relabeling_preserves_census_counts():
    # same nerve up to a permutation of chart labels
    nv1 = CoverNerve(range(4), doubles=[(0, 1), (0, 2), (1, 2), (2, 3)],
                     triples=[(0, 1, 2)])
    nv2 = CoverNerve(range(4), doubles=[(0, 1), (0, 2), (1, 2), (0, 3)],
                     triples=[(0, 1, 2)])
    c1 = classify_finite(FLIP, nv1)
    c2 = classify_finite(FLIP, nv2)
    assert (c1["cocycles"], c1["orbits"]) == (c2["cocycles"], c2["orbits"]) \
        == (24, 1)


# the (module, nerve) pairs of the benchmark's census workload
CENSUS_PAIRS = [(m, nv) for nv in ("sphere", "tetrahedron")
                for m in ("GERBE(Z2)", "GERBE(Z3)", "GERBE(Z5)", "FLIP(Z3)")] + [
    (m, "triangle") for m in ("CONJ(S3)", "AUT(S3)", "AUT(Z5)")]


@pytest.mark.parametrize("module,nerve_name", CENSUS_PAIRS)
def test_census_equals_bfs_over_coboundary_act(module, nerve_name):
    # the batched census against orbits walked one public move at a time
    cm, nv = crossed_module(module), nerve(nerve_name)
    doubles, triples = sorted(nv.doubles), sorted(nv.triples)

    def act(state, lam, b):
        data = GluingCocycle(cm, nv, dict(zip(doubles, state[0])),
                             dict(zip(triples, state[1])))
        out = coboundary_act(data, lam, b, check=False)
        return tuple(out.g[d] for d in doubles), tuple(out.h[t] for t in triples)

    assert classify_finite(cm, nv) == census_by_hand(cm, nv, act)


def test_largest_admitted_census_finishes():
    # AUT(Z5) on the sphere: 4^6 5^4 candidates, inside the budget. Flat g
    # has 4^3 choices and t is trivial, so every h in Z5^4 is a cocycle;
    # H^2(S^2; Z5) = Z5 modulo the units of Aut(Z5) leaves {0} and {1..4}
    cm = crossed_module("AUT(Z5)")
    census = classify_finite(cm, nerve("sphere"))
    assert (census["cocycles"], census["orbits"]) == (4 ** 3 * 5 ** 4, 2)
    g = {d: 0 for d in ("0,1", "0,2", "0,3", "1,2", "1,3", "2,3")}
    assert census["representatives"] == [
        {"g": g, "h": {"0,1,2": 0, "0,1,3": 0, "0,2,3": 0, "1,2,3": 0}},
        {"g": g, "h": {"0,1,2": 0, "0,1,3": 0, "0,2,3": 0, "1,2,3": 1}}]


def test_census_refuses_an_invalid_module():
    # trivial t and action on nonabelian S3: coboundary moves would leave
    # the cocycle set, so the census names the broken axiom instead
    with pytest.raises(ConfigError) as exc:
        classify_finite(crossed_module("PEIFFER_BROKEN(S3)"), nerve("tetrahedron"))
    assert "peiffer" in str(exc.value)


@pytest.mark.parametrize("name", ["GERBE(Z3)", "PEIFFER_BROKEN(S3)"])
def test_a_module_is_checked_once_for_all_its_censuses(name, monkeypatch):
    calls = []

    def counted(cm, *args, **kwargs):
        calls.append(cm.name)
        return crossed.validate_crossed_module(cm, *args, **kwargs)
    monkeypatch.setattr(cech, "validate_crossed_module", counted)
    cm = crossed_module(name)
    outcomes = []
    for nv in ("tetrahedron", "triangle"):
        try:
            census = classify_finite(cm, nerve(nv))
            outcomes.append((census["cocycles"], census["orbits"]))
        except ConfigError as exc:
            outcomes.append(str(exc))
    assert calls == [name]
    if name == "GERBE(Z3)":
        # h on 4 triples under one tetrahedron law, then h on the lone
        # triple; both nerves are contractible, so one class each
        assert outcomes == [(3 ** 3, 1), (3, 1)]
    else:  # the failing verdict is kept too, with the same message
        assert outcomes == 2 * ["classification needs a crossed module: "
                                "PEIFFER_BROKEN(S3) fails peiffer"]


# ------------------------------------------------ generator moves, touched columns

# every shipped finite module on every strict shipped nerve the budget admits
ADMITTED = [(m, nv) for m in shipped_finite_names()
            for nv in NERVE_FIXTURES if nerve(nv).is_strict
            and crossed_module(m).G.order ** len(nerve(nv).doubles)
            * crossed_module(m).H.order ** len(nerve(nv).triples) <= 10 ** 7]


def t_is_bijective(cm):
    return sorted(cm.t(h) for h in cm.H.elements()) == sorted(cm.G.elements())


# the admitted censuses of modules whose t is an isomorphism H -> G
ISOMORPHIC_T = [(m, nv) for m, nv in ADMITTED if t_is_bijective(crossed_module(m))]


def test_isomorphic_t_modules_include_conj_and_aut_of_s3():
    assert {m for m, _ in ISOMORPHIC_T} >= {"CONJ(S3)", "AUT(S3)"}
    assert {nv for _, nv in ISOMORPHIC_T} >= {"two-charts", "triangle"}


@pytest.mark.parametrize("module,nerve_name", ISOMORPHIC_T)
def test_isomorphic_t_gives_the_trivial_census(module, nerve_name):
    # with t: H -> G a bijection the 2-group is equivalent to the trivial
    # one. The triangle law fixes each h from the g, the tetrahedron law
    # then holds because t is injective, and b_ij = t^-1(g_ij^-1) moves
    # every g to the identity. So every g assignment is one cocycle, and
    # all of them form one class whose least member is the identity
    cm, nv = crossed_module(module), nerve(nerve_name)
    census = classify_finite(cm, nv)
    assert census["cocycles"] == cm.G.order ** len(nv.doubles)
    assert census["orbits"] == 1
    assert census["representatives"] == [
        {"g": {",".join(map(str, d)): cm.G.identity for d in sorted(nv.doubles)},
         "h": {",".join(map(str, t)): cm.H.identity for t in sorted(nv.triples)}}]


@functools.lru_cache(maxsize=None)
def census_states(module, nerve_name):
    """(tables, layout, codes of every cocycle) as the census builds them."""
    cm, nv = crossed_module(module), nerve(nerve_name)
    tab = cm.compiled()
    layout = cech._StateLayout(tab, sorted(nv.doubles), sorted(nv.triples))
    return tab, layout, cech._cocycle_codes(tab, layout, sorted(nv.quads))


def moved_codes_in_full(tab, layout, codes, lam, bmap):
    # the oracle: every column pasted anew, none copied
    gv, hv = layout.accessors(layout.digits(codes))
    lam_at = lambda i: lam.get(i, tab.G.identity)
    b_at = lambda d: bmap.get(d, tab.H.identity)
    moved = ([cech._transformed_double(tab, gv, lam_at, b_at, d) for d in layout.doubles]
             + [cech._transformed_triple(tab, gv, hv, lam_at, b_at, t)
                for t in layout.triples])
    return layout.code(moved, len(codes))


def single_site_moves(tab, charts, layout):
    """Every single-site move with every value, identity included."""
    for c in charts:
        yield "chart", c, [({c: x}, {}) for x in range(tab.G.order)]
    for d in layout.doubles:
        yield "double", d, [({}, {d: y}) for y in range(tab.H.order)]


def moved_codes(tab, layout, codes, sites):
    """The census's batched moves, in its blocks of states: one row of moved
    codes per (lam, bmap) site."""
    moves = cech._Moves(tab, layout, sites)
    return np.concatenate([cech._moved_codes(tab, layout, codes[block], moves)
                           for block in crossed._blocks(len(codes))], axis=1)


@pytest.mark.parametrize("module,nerve_name", ADMITTED)
def test_single_site_moves_compose_as_group_actions(module, nerve_name):
    # lam at a chart: m_x after m_y is m_xy; b at a double: m_x after m_y
    # is m_yx. So the moves by a generating set reach every value's move
    tab, layout, codes = census_states(module, nerve_name)
    for kind, site, moves in single_site_moves(tab, nerve(nerve_name).charts, layout):
        group = tab.G if kind == "chart" else tab.H
        moved = moved_codes(tab, layout, codes, moves)
        assert moved.shape == (group.order, len(codes))
        assert np.array_equal(moved[group.identity], codes)
        for y in range(group.order):
            # row x: the move by x applied after the move by y
            twice = moved_codes(tab, layout, moved[y], moves)
            for x in range(group.order):
                xy = group.mul(x, y) if kind == "chart" else group.mul(y, x)
                assert np.array_equal(twice[x], moved[xy]), (kind, site, x, y)


@pytest.mark.parametrize("module,nerve_name", ADMITTED)
def test_touched_columns_equal_a_full_recompute(module, nerve_name):
    # every move of every site in one batch, each row against a full recompute
    tab, layout, codes = census_states(module, nerve_name)
    sites = [move for _, _, moves in single_site_moves(tab, nerve(nerve_name).charts, layout)
             for move in moves]
    moved = moved_codes(tab, layout, codes, sites)
    assert moved.shape == (len(sites), len(codes))
    for (lam, bmap), row in zip(sites, moved):
        assert np.array_equal(row, moved_codes_in_full(tab, layout, codes, lam, bmap))


def test_census_moves_by_generators_only(monkeypatch):
    # one move per chart and G generator, and per double and H generator
    made = []
    batched = cech._moved_codes

    def counting(tab, layout, codes, moves):
        made.extend((tuple(lam.items()), tuple(bmap.items())) for lam, bmap in moves.sites)
        return batched(tab, layout, codes, moves)

    monkeypatch.setattr(cech, "_moved_codes", counting)
    for module, nerve_name, expected in [("CONJ(S3)", "triangle", 3 * 2 + 3 * 2),
                                         ("FLIP(Z3)", "sphere", 4 * 1 + 6 * 1),
                                         ("GERBE(Z5)", "tetrahedron", 6 * 1)]:
        made.clear()
        classify_finite(crossed_module(module), nerve(nerve_name))
        assert len(set(made)) == expected


def test_census_in_blocks_of_one_state_equals_one_block(monkeypatch):
    # the moves of each block are merged after all blocks are mapped, so the
    # block size must not change the classes or their least members
    pairs = [("GERBE(Z2)", "sphere"), ("FLIP(Z3)", "triangle"),
             ("CONJ(S3)", "triangle"), ("AUT(Z5)", "triangle")]
    whole = [classify_finite(crossed_module(m), nerve(nv)) for m, nv in pairs]
    assert all(census["cocycles"] <= crossed.BLOCK for census in whole)
    monkeypatch.setattr(crossed, "BLOCK", 1)
    assert [classify_finite(crossed_module(m), nerve(nv)) for m, nv in pairs] == whole


def test_large_cyclic_gerbe_on_the_sphere():
    # H^2(S^2; Z20) = Z20: all 20^4 h are cocycles, one class per value of
    # the alternating sum, least member (0, 0, 0, k)
    census = classify_finite(crossed_module("GERBE(Z20)"), nerve("sphere"))
    assert (census["cocycles"], census["orbits"]) == (20 ** 4, 20)
    g = {d: 0 for d in ("0,1", "0,2", "0,3", "1,2", "1,3", "2,3")}
    assert census["representatives"] == [
        {"g": g, "h": {"0,1,2": 0, "0,1,3": 0, "0,2,3": 0, "1,2,3": k}}
        for k in range(20)]
