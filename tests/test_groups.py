"""Group kernel: table validation, permutation oracle, exp/log contracts."""

import numpy as np
import pytest

from twogauge.errors import GroupDomainError, LogRangeError
from twogauge.groups import (
    SO3, SU2, TRIVIAL, U1, FiniteGroup, automorphism_group, automorphisms,
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
