"""Group kernel: table validation, permutation oracle, exp/log contracts."""

import itertools
import math

import numpy as np
import pytest

from twogauge.errors import GroupDomainError, LogRangeError
from twogauge.groups import (
    SO3, SU2, TAU_GRP, TRIVIAL, U1, FiniteGroup, automorphism_group, automorphisms,
    frobenius_norms,
)


def _perm_oracle(p, q):
    # independent composition: apply q first, then p
    return tuple(p[q[i]] for i in range(len(p)))


def _series_expm(x, terms=60):
    # independent oracle: plain power series, summed to machine precision
    x = np.asarray(x, dtype=complex)
    acc = np.eye(x.shape[0], dtype=complex)
    term = np.eye(x.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ x / k
        acc = acc + term
    return acc


# -------------------------------------------------------------------- finite

def test_table_validation_rejects_broken_tables():
    with pytest.raises(GroupDomainError):
        FiniteGroup([[0, 1], [1, 1]])  # 1 has no inverse
    with pytest.raises(GroupDomainError):
        FiniteGroup([[1, 0], [0, 0]])  # no identity row/col pair
    bad = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]  # not associative
    with pytest.raises(GroupDomainError):
        FiniteGroup(bad)


def test_cyclic_group():
    z5 = FiniteGroup.cyclic(5)
    assert z5.mul(3, 4) == 2
    assert z5.inv(2) == 3
    assert z5.identity == 0


def test_symmetric_group_matches_permutation_oracle():
    s3 = FiniteGroup.symmetric(3)
    assert s3.order == 6
    for a, p in enumerate(s3.perms):
        for b, q in enumerate(s3.perms):
            assert s3.perms[s3.mul(a, b)] == _perm_oracle(p, q)
    # the pinned concrete product: (12) then composed with (13) applied second
    a = s3.perms.index((1, 0, 2))  # swaps slots 1,2 in 1-based labels
    b = s3.perms.index((2, 1, 0))
    assert s3.perms[s3.mul(b, a)] == _perm_oracle((2, 1, 0), (1, 0, 2))


def test_finite_membership_errors():
    z3 = FiniteGroup.cyclic(3)
    with pytest.raises(GroupDomainError):
        z3.mul(0, 5)
    with pytest.raises(GroupDomainError):
        z3.inv(-1)


@pytest.mark.parametrize("value", [True, False, np.True_, np.bool_(False), 1.0, 2.5,
                                   np.float64(1), 3, -1, np.int64(3), 2 ** 70, "1", None])
def test_finite_refusals_keep_their_text(value):
    # a plain in-range int takes a fast path; nothing else does
    z3 = FiniteGroup.cyclic(3)
    assert not z3.contains(value)
    with pytest.raises(GroupDomainError) as caught:
        z3.inv(value)
    assert str(caught.value) == f"{value!r} is not an element of Z3"


def test_finite_elements_come_back_as_plain_ints():
    z3 = FiniteGroup.cyclic(3)
    for value in (0, 2, np.int64(2), np.intp(1)):
        assert z3.contains(value)
        assert type(z3.renormalize(value)) is int and z3.renormalize(value) == value


def test_automorphisms_s3():
    s3 = FiniteGroup.symmetric(3)
    autos = automorphisms(s3)
    assert len(autos) == 6  # S3 is complete: Aut(S3) = Inn(S3) = S3
    aut, imgs = automorphism_group(s3)
    assert aut.order == 6
    # every automorphism is inner for S3
    assert all(name.startswith("conj[") for name in aut.names)


def test_automorphisms_cyclic():
    z5 = FiniteGroup.cyclic(5)
    autos = automorphisms(z5)
    assert len(autos) == 4  # units mod 5
    aut, imgs = automorphism_group(z5)
    assert sorted(p[1] for p in imgs) == [1, 2, 3, 4]


def _respects(table, phi):
    n = len(phi)
    return all(phi[table[a][b]] == table[phi[a]][phi[b]] for a in range(n) for b in range(n))


def _assert_plain(autos):
    assert all(type(x) is int for phi in autos for x in phi)


def test_automorphisms_of_cyclic_groups_are_the_unit_multiplications():
    # Aut(Z_n) is x -> u x mod n for each u coprime to n (Z1: x -> 0)
    for n in range(1, 101):
        autos = automorphisms(FiniteGroup.cyclic(n))
        assert autos == sorted(tuple(u * x % n for x in range(n))
                               for u in range(n) if math.gcd(u, n) == 1), n
        _assert_plain(autos)


def test_automorphisms_of_s3_are_its_table_preserving_permutations():
    s3 = FiniteGroup.symmetric(3)
    table = s3.table.tolist()
    autos = automorphisms(s3)
    # permutations come in increasing order
    assert autos == [p for p in itertools.permutations(range(6)) if _respects(table, p)]
    _assert_plain(autos)


def test_automorphisms_of_s4_are_its_table_preserving_maps():
    # 24! permutations are too many to try; every automorphism is fixed by
    # its images of (0 1) and (0 1 2 3), which generate S4, so try every
    # pair of images, spelling each element as a word in the two
    s4 = FiniteGroup.symmetric(4)
    table = s4.table.tolist()
    gens = [s4.perms.index(p) for p in ((1, 0, 2, 3), (1, 2, 3, 0))]
    words, queue = {s4.identity: ()}, [s4.identity]
    for x in queue:
        for k, g in enumerate(gens):
            y = table[x][g]
            if y not in words:
                words[y] = words[x] + (k,)
                queue.append(y)
    assert len(words) == 24
    want = []
    for images in itertools.product(range(24), repeat=2):
        phi = []
        for x in range(24):
            y = s4.identity
            for k in words[x]:
                y = table[y][images[k]]
            phi.append(y)
        if len(set(phi)) == 24 and _respects(table, phi):
            want.append(tuple(phi))
    assert len(want) == 24  # Aut(S4) = Inn(S4) = S4
    autos = automorphisms(s4)
    assert autos == sorted(want)
    _assert_plain(autos)


# -------------------------------------------------------------------- matrix

@pytest.mark.parametrize("factory", [U1, SU2, SO3])
def test_exp_matches_series_oracle(factory):
    g = factory()
    rng = np.random.default_rng(42)
    for _ in range(10):
        x = g.algebra.random(rng)
        got = g.exp(x)
        want = _series_expm(x)
        if g.dtype is float:
            want = want.real
        assert np.linalg.norm(got - want) < 1e-13


@pytest.mark.parametrize("factory", [U1, SU2, SO3])
def test_log_round_trip(factory):
    g = factory()
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = g.algebra.random(rng, scale=0.8)
        back = g.log(g.exp(x))
        assert np.linalg.norm(back - x) < 1e-10
        assert g.algebra.contains(back)


def test_log_cut_locus_reports_eigenvalue():
    su2 = SU2()
    minus_one = -np.eye(2, dtype=complex)
    with pytest.raises(LogRangeError) as err:
        su2.log(minus_one)
    assert err.value.eigenvalue is not None
    assert abs(err.value.eigenvalue + 1.0) < 1e-9

    so3 = SO3()
    # rotation by pi about z is the SO(3) cut locus
    rot_pi = np.diag([-1.0, -1.0, 1.0])
    with pytest.raises(LogRangeError):
        so3.log(rot_pi)


def test_membership_and_projection():
    su2 = SU2()
    rng = np.random.default_rng(3)
    g = su2.random(rng)
    assert su2.contains(g)
    noisy = g + 1e-8 * rng.normal(size=(2, 2))
    fixed = su2.project(noisy)
    assert su2.contains(fixed)
    assert np.linalg.norm(fixed - g) < 1e-7

    so3 = SO3()
    r = so3.random(rng)
    assert so3.contains(r)
    assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
    assert abs(np.linalg.det(r) - 1) < 1e-12


def test_mixed_operand_errors():
    su2 = SU2()
    with pytest.raises(GroupDomainError):
        su2.mul(np.eye(2), np.eye(3))
    with pytest.raises(GroupDomainError):
        su2.mul(np.eye(2), 2 * np.eye(2))  # not unitary
    so3 = SO3()
    with pytest.raises(GroupDomainError):
        so3.mul(np.eye(3), 1j * np.eye(3))


def test_algebra_bases_and_structure_constants():
    su2 = su2 = SU2().algebra
    f = su2.structure_constants()
    # [e1, e2] = e3 and cyclic
    assert np.allclose(f[:, 0, 1], [0, 0, 1])
    assert np.allclose(f[:, 1, 2], [1, 0, 0])
    assert np.allclose(f[:, 2, 0], [0, 1, 0])
    so3 = SO3().algebra
    f3 = so3.structure_constants()
    assert np.allclose(f3[:, 0, 1], [0, 0, 1])
    # coords/from_coords round trip
    rng = np.random.default_rng(0)
    c = rng.normal(size=3)
    assert np.allclose(su2.coords(su2.from_coords(c)), c)
    assert np.allclose(so3.coords(so3.from_coords(c)), c)


@pytest.mark.parametrize("group", [U1, SU2, SO3], ids=["u1", "su2", "so3"])
def test_basis_elements_have_exact_unit_coords(group):
    # a pseudo-inverse gives 0.9999999999999998 here, which leaks into the
    # structure constants and dt matrices and leaves ulp-sized fake curvature
    algebra = group().algebra
    for k, e in enumerate(algebra.basis):
        assert np.array_equal(algebra.coords(e), np.eye(algebra.dim)[k])
    f = algebra.structure_constants()
    assert np.array_equal(f, np.round(f))


def test_trivial_group():
    t = TRIVIAL()
    assert t.contains(np.eye(1))
    assert not t.contains(2 * np.eye(1))
    assert t.algebra.dim == 0


# each family's size, field, det = 1 condition and one-element-ness, written out
FAMILY_FLAGS = {"U1": (1, complex, False, False), "SU2": (2, complex, True, False),
            "SO3": (3, float, True, False), "TRIVIAL": (1, float, False, True)}


@pytest.mark.parametrize("factory", [U1, SU2, SO3, TRIVIAL], ids=lambda f: f.__name__)
def test_flags_derived_from_the_algebra_are_each_familys_own(factory):
    G = factory()
    n, dtype, special, trivial = FAMILY_FLAGS[G.name]
    assert (G.n, G.dtype, G.trivial) == (n, dtype, trivial)
    # TRIVIAL's algebra is traceless vacuously; its own branches run first
    assert G.special == (special or trivial)


# ------------------------------------------------------------------- stacks

def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def _drifted_stack(G, n=600, seed=3):
    # members pushed off the group by 1e-14 to 1e-8, across the 1e-10
    # reprojection threshold
    rng = np.random.default_rng(seed)
    base = np.stack([G.random(rng) for _ in range(n)]).astype(G.dtype)
    noise = rng.normal(size=base.shape) * 10 ** rng.uniform(-14, -8, (n, 1, 1))
    if G.dtype is complex:
        noise = noise + 1j * rng.normal(size=base.shape) * 1e-11
    return base + noise


@pytest.mark.parametrize("factory", [SU2, U1, SO3, TRIVIAL])
def test_stacked_group_operations_have_the_per_matrix_bits(factory):
    G = factory()
    g = _drifted_stack(G)
    assert _bits(G.defect(g)) == _bits(np.array([G.defect(x) for x in g]))
    assert _bits(G.project(g)) == _bits(np.stack([G.project(x) for x in g]))
    r = G.renormalize(g)
    assert _bits(r) == _bits(np.stack([G.renormalize(x) for x in g]))
    assert _bits(G.inv(r)) == _bits(np.stack([G.inv(x) for x in r]))


def test_frobenius_norms_are_numpys_norms():
    rng = np.random.default_rng(4)
    for n in (1, 2, 3):
        for stack in (rng.normal(size=(500, n, n)),
                      rng.normal(size=(500, n, n)) + 1j * rng.normal(size=(500, n, n))):
            want = np.array([np.linalg.norm(x) for x in stack])
            assert _bits(frobenius_norms(stack)) == _bits(want)


@pytest.mark.parametrize("factory", [SU2, U1, SO3])
def test_stacked_membership_check_decides_like_the_exact_defect(factory):
    # defects spread around the 1e-6 bound, on both sides of it and close to
    # it; the stack must raise exactly when a matrix alone would, naming the
    # first bad matrix's defect
    G = factory()
    rng = np.random.default_rng(8)
    for scale in (1e-9, 3e-7, 8e-7, 1.2e-6, 1e-3):
        g = np.stack([G.random(rng) for _ in range(40)]).astype(G.dtype)
        g = g + scale * rng.normal(size=g.shape) / np.sqrt(g[0].size)
        inside = all(G.defect(x) <= 1e-6 for x in g)
        if inside:
            assert G.inv(g).shape == g.shape
        else:
            worst = next(G.defect(x) for x in g if G.defect(x) > 1e-6)
            with pytest.raises(GroupDomainError, match=f"defect {worst:.2e}"):
                G.inv(g)


@pytest.mark.parametrize("factory", [SU2, U1, SO3, TRIVIAL])
def test_nan_matrix_fails_the_membership_check(factory):
    # every comparison with NaN is False, so `defect > bound` would let it in
    G = factory()
    bad = np.array(G.identity, dtype=G.dtype)
    bad[0, 0] = np.nan
    with np.errstate(invalid="ignore"):  # det warns on NaN
        with pytest.raises(GroupDomainError, match=r"defect (nan|inf)"):
            G.inv(bad)
        with pytest.raises(GroupDomainError, match=r"defect (nan|inf)"):
            G.inv(np.stack([G.identity, bad, G.identity]))


def _table_verdict_by_loops(table):
    """The checks FiniteGroup ran before they took arrays: identity, then
    associativity triple by triple, then inverses; the first failure's text,
    or the identity and the inverses."""
    n = len(table)
    ident = next((e for e in range(n)
                  if all(table[e][a] == a and table[a][e] == a for a in range(n))), None)
    if ident is None:
        return "table has no identity element"
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return f"table not associative at ({a},{b},{c})"
    inv = []
    for a in range(n):
        hits = [b for b in range(n) if table[a][b] == ident]
        if len(hits) != 1 or table[hits[0]][a] != ident:
            return f"element {a} has no two-sided inverse"
        inv.append(hits[0])
    return ident, inv


def _table_verdict(table):
    try:
        group = FiniteGroup(table)
    except GroupDomainError as exc:
        return str(exc)
    return group.identity, [group.inv(a) for a in group.elements()]


def test_array_table_checks_give_the_loops_first_failure():
    rng = np.random.default_rng(11)
    bases = [FiniteGroup.cyclic(n).table.tolist() for n in (1, 2, 4, 6)]
    bases += [FiniteGroup.symmetric(3).table.tolist(),
              [[a ^ b for b in range(4)] for a in range(4)]]
    verdicts = set()
    for base in bases:
        n = len(base)
        for _ in range(40):
            table = [row[:] for row in base]
            # one to three entries moved, some within the identity's row
            for _ in range(rng.integers(1, 4)):
                table[rng.integers(n)][rng.integers(n)] = int(rng.integers(n))
            want = _table_verdict_by_loops(table)
            assert _table_verdict(table) == want, table
            verdicts.add(want if isinstance(want, str) else "group")
        random_table = rng.integers(n, size=(n, n)).tolist()
        assert _table_verdict(random_table) == _table_verdict_by_loops(random_table)
    # monoids that are not groups: associative, with an identity, without inverses
    for table in ([[0, 1], [1, 1]], [[0, 1, 2], [1, 1, 1], [2, 2, 2]],
                  [[0, 1, 2], [1, 2, 2], [2, 2, 2]]):
        want = _table_verdict_by_loops(table)
        assert _table_verdict(table) == want
        verdicts.add(want)
    assert {v if v == "group" else v.split(" at ")[0].split(" has ")[-1] for v in verdicts} \
        == {"group", "no identity element", "table not associative", "no two-sided inverse"}


@pytest.mark.parametrize("table", [[[0, 1.9], [True, 0]], [[0, 1], [True, 0]], [[0, 1], [1, 0.0]],
                                   [[0, 1], [1]], [[0, 1], [1, "0"]],
                                   [[0, 1], [1, np.True_]]])
def test_tables_hold_integers_only(table):
    with pytest.raises(GroupDomainError, match="entries must be integer indices"):
        FiniteGroup(table)


def test_huge_table_entries_are_refused():
    with pytest.raises(GroupDomainError, match="must be integer indices"):
        FiniteGroup([[0, 10 ** 30], [1, 0]])


def test_u1_exp_has_the_scipy_bits():
    # a 1x1 exp skips scipy; scipy's expm takes np.exp on 1x1 input too
    from scipy.linalg import expm
    G = U1()
    rng = np.random.default_rng(12)
    for _ in range(200):
        x = G.algebra.random(rng, 0.6) * rng.uniform(0.1, 10.0)
        assert G.exp(x).tobytes() == G.renormalize(expm(x)).tobytes()


# ------------------------------------------------- the membership decisions
# renormalize reprojects when the defect exceeds TAU_GRP / 10 and _check
# refuses one that is not within 1e-6; both decide from a cheap value where it
# lies well away from the bound, and from the exact `defect` elsewhere

BOUNDS = [TAU_GRP / 10, 1e-6]
# well outside the guard band around a bound, and well inside it
FAR, NEAR = (1 - 1e-2, 1 + 1e-2), (1 - 1e-5, 1 + 1e-5)


def _at_defect(G, g, target):
    """(1 + e) g for a member g, with e such that the exact defect is about
    `target`: ||(1 + e)^2 g^H g - I||_F is sqrt(n) (2e + e^2), which outweighs
    |det - 1| = (1 + e)^n - 1 for n = 2 and 3."""
    c = target / math.sqrt(G.n)
    return (1 + c / (1 + math.sqrt(1 + c))) * g


def _probes(G, bound, seed=21):
    """Members, matrices at the bound times each factor of FAR and NEAR, many
    at the bound itself, and matrices with a NaN or an infinite entry."""
    rng = np.random.default_rng(seed)
    out = []
    for factor, count in [(None, 6)] + [(f, 6) for f in FAR + NEAR] + [(1.0, 200)]:
        for _ in range(count):
            g = np.asarray(G.random(rng), dtype=G.dtype)
            out.append(g if factor is None else _at_defect(G, g, bound * factor))
    for value in (np.nan, np.inf, -np.inf):
        g = np.array(G.identity, dtype=G.dtype)
        g[0, -1] = value
        out.append(g)
    return out


def _outcome(f, g):
    """What f(g) gives: its bits, or its error's type and text."""
    try:
        with np.errstate(invalid="ignore"):  # det warns on NaN
            return np.ascontiguousarray(f(g)).tobytes()
    except (GroupDomainError, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc)


def _renormalize_by_the_exact_defect(G, g):
    d = G.defect(g)
    if np.ndim(d):
        redo = np.flatnonzero(d > TAU_GRP / 10)
        if len(redo):
            g = np.array(g)
            g[redo] = G.project(g[redo])
        return g
    return G.project(g) if d > TAU_GRP / 10 else g


def _check_by_the_exact_defect(G, g):
    d = G.defect(g)
    if np.ndim(d):
        bad = d[~(d <= 1e-6)]
        d = bad[0] if len(bad) else 0.0
    if not d <= 1e-6:
        raise GroupDomainError(f"matrix is not in {G.name} (defect {d:.2e})")
    return g


def _cheap_and_exact_disagree(G, probes, bound):
    """Whether the cheap value and the exact defect fall on different sides of
    the bound for some probe, alone or in a stack: then only the guard band
    keeps the decision."""
    stack = np.stack(probes[:-3])
    exact = G.defect(stack) > bound
    return ((G._cheap_stack_defect(stack) > bound) != exact).any() or \
        any((G._cheap_defect(g.tolist()) > bound) != e for g, e in zip(stack, exact))


def _stacks(probes, seed=22):
    """Every probe alone, all of them in one stack, and shuffled mixes."""
    rng = np.random.default_rng(seed)
    stacks = [np.stack(probes)]
    for _ in range(5):
        stacks.append(np.stack([probes[k] for k in rng.permutation(len(probes))[:7]]))
    return stacks


@pytest.mark.parametrize("factory", [U1, SU2, SO3], ids=["u1", "su2", "so3"])
def test_renormalize_has_the_bits_of_the_exact_defects_decision(factory):
    G = factory()
    probes = _probes(G, TAU_GRP / 10)
    for g in probes + _stacks(probes):
        assert _outcome(G.renormalize, g) == \
            _outcome(lambda x: _renormalize_by_the_exact_defect(G, x), g)
    # both sides of the bound are reached, so the comparison decides something
    reprojected = [G.renormalize(g) is not g for g in probes[:-3]]
    assert any(reprojected) and not all(reprojected)
    assert _cheap_and_exact_disagree(G, probes, TAU_GRP / 10)


@pytest.mark.parametrize("factory", [U1, SU2, SO3], ids=["u1", "su2", "so3"])
def test_membership_check_refuses_as_the_exact_defect_did(factory):
    G = factory()
    probes = _probes(G, 1e-6)
    for g in probes + _stacks(probes):
        want = _outcome(lambda x: _check_by_the_exact_defect(G, x), g)
        assert _outcome(G._check, g) == want
        assert _outcome(G.inv, g) == (want if isinstance(want, tuple)
                                      else _outcome(lambda x: x.conj().swapaxes(-1, -2), g))
    refused = [isinstance(_outcome(G._check, g), tuple) for g in probes]
    assert any(refused) and not all(refused)
    assert _cheap_and_exact_disagree(G, probes, 1e-6)


def _defect_by_formula(G, g):
    """The defect written out: ||g - 1|| on the trivial group, else
    ||g^H g - 1|| and, on a special group, the larger of that and |det g - 1|."""
    eye = np.eye(G.n)
    if G.trivial:
        return float(np.linalg.norm(g - eye))
    d = float(np.linalg.norm(g.conj().T @ g - eye))
    if G.special:
        d = max(d, float(abs(np.linalg.det(g) - 1.0)))
    return d


@pytest.mark.parametrize("factory", [SU2, U1, SO3, TRIVIAL])
def test_defect_of_one_matrix_is_the_written_out_formula(factory):
    G = factory()
    probes = list(_drifted_stack(G, n=200)) + _probes(G, 1e-6) + _probes(G, TAU_GRP / 10)
    with np.errstate(invalid="ignore"):  # det warns on NaN
        for g in probes:
            got, want = G.defect(g), _defect_by_formula(G, g)
            assert type(got) is float
            assert (math.isnan(got) and math.isnan(want)) or _bits(got) == _bits(want)
    # a matrix of another shape is infinitely far from the group
    assert G.defect(np.eye(G.n + 1)) == np.inf


@pytest.mark.parametrize("factory", [U1, SU2, SO3], ids=["u1", "su2", "so3"])
@pytest.mark.parametrize("bound", BOUNDS)
def test_the_exact_defect_decides_inside_the_band_only(factory, bound, monkeypatch):
    G = factory()
    seen = []
    exact = G._stack_defect
    monkeypatch.setattr(G, "defect", lambda g: seen.append(np.shape(g)) or -1.0)
    monkeypatch.setattr(G, "_stack_defect", lambda g: seen.append(g.shape) or exact(g))
    rng = np.random.default_rng(23)
    far = [_at_defect(G, G.random(rng), bound * f) for f in FAR]
    near = [_at_defect(G, G.random(rng), bound * f) for f in NEAR]
    # the exact defect of one matrix is itself a stack of one
    want = [G.__class__.defect(G, g) > bound for g in far]
    seen.clear()
    assert [G._defect_against(g, bound) > bound for g in far] == want
    assert not seen
    for g in near:  # the stand-in answers -1.0: the cheap value is not used
        assert G._defect_against(g, bound) == -1.0
    assert seen == [(G.n, G.n)] * len(near)
    seen.clear()
    stack = np.stack([far[0], near[0], far[1], near[1]])
    d = G._defect_against(stack, bound)
    # only the two matrices inside the band reach the exact defect
    assert seen == [(2, G.n, G.n)]
    assert d[[1, 3]].tobytes() == exact(stack)[[1, 3]].tobytes()
    assert ((d > bound) == (exact(stack) > bound)).all()
    # a cheap value that is not finite is never trusted either
    seen.clear()
    monkeypatch.setattr(G, "_cheap_stack_defect",
                        lambda g: np.array([np.inf, np.nan, 2 * bound, 0.0]))
    G._defect_against(stack, bound)
    assert seen == [(2, G.n, G.n)]
