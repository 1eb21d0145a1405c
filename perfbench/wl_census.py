"""Workload `census`: `classify_finite` over fixed (module, nerve) pairs.

On sphere and tetrahedron: GERBE(Z2), GERBE(Z3), GERBE(Z5) and FLIP(Z3). On
triangle: CONJ(S3), AUT(S3) and AUT(Z5). The 2-cell pasting runs here too,
but few cells are built per check and thousands of coboundary moves are
made per orbit search, so census-only changes show here and not in `finite`.
The seed fixes the order of the pairs in a round and relabels each nerve's
charts by an increasing map, which keeps the census and its work the same.

GERBE(Zn) must give n^4 cocycles in n classes on the sphere and n^3 in one
class on the tetrahedron. Every other pair is compared with a brute-force
enumeration written from the closed-form conditions on the Cayley tables,
run once after the timed loop.
"""

import itertools
import random
from types import SimpleNamespace

from twogauge import CoverNerve, classify_finite, crossed_module, nerve

from harness import OK, Op, require
from wl_finite import Tables

PAIRS = [(m, nv) for nv in ("sphere", "tetrahedron")
         for m in ("GERBE(Z2)", "GERBE(Z3)", "GERBE(Z5)", "FLIP(Z3)")] + [
    (m, "triangle") for m in ("CONJ(S3)", "AUT(S3)", "AUT(Z5)")]


def slug(module, nerve_name):
    """A metric-name-safe label such as GERBE-Z5.sphere."""
    return f"{module.replace('(', '-').rstrip(')')}.{nerve_name}"


def _relabelled(fixture, labels):
    to = dict(zip(fixture.charts, labels))
    return CoverNerve(labels,
                      doubles=[tuple(to[c] for c in d) for d in fixture.doubles],
                      triples=[tuple(to[c] for c in t) for t in fixture.triples],
                      quads=[tuple(to[c] for c in q) for q in fixture.quads])


def prepare(seed):
    rng = random.Random(seed)
    inp = SimpleNamespace()
    inp.pairs = list(PAIRS)
    rng.shuffle(inp.pairs)
    inp.modules = {m: crossed_module(m) for m in sorted({m for m, _ in PAIRS})}
    inp.nerves = {}
    for m, nv in inp.pairs:
        fixture = nerve(nv)
        labels = sorted(rng.sample(range(100), len(fixture.charts)))
        inp.nerves[(m, nv)] = _relabelled(fixture, labels)
    return inp


def _check(out, first):
    require(not isinstance(out, Exception), f"raised {out!r}")
    require(out["orbits"] == len(out["representatives"]),
            "one representative per class")
    if first is not None:
        require(out == first, "census differs from the first round's")
    return OK


def operations(inp):
    return [Op(f"classify/{m}/{nv}",
               lambda m=m, nv=nv: classify_finite(inp.modules[m], inp.nerves[(m, nv)]),
               _check)
            for m, nv in inp.pairs]


# ------------------------------------------------------------------ oracle

class ClosedForm:
    """Cocycle conditions and coboundary moves written out on Cayley tables.

    Stored values follow the right-multiplied convention
    g_ij g_jk t(h_ijk) = g_ik. The tetrahedron condition over (i, j, k, l) is
    alpha(g_kl^-1)(h_ijk) h_ikl = h_jkl h_ijl.
    """

    def __init__(self, cm, nv):
        tab = Tables(cm)
        self.Gt, self.Ht = tab.G.tolist(), tab.H.tolist()
        self.t, self.al = tab.t.tolist(), tab.alpha.tolist()
        self.eG, g_inv = Tables._identity_and_inverse(tab.G)
        self.eH, h_inv = Tables._identity_and_inverse(tab.H)
        self.g_inv, self.h_inv = g_inv.tolist(), h_inv.tolist()
        self.charts = list(nv.charts)
        self.doubles = sorted(nv.doubles)
        self.triples = sorted(nv.triples)
        self.quads = sorted(nv.quads)

    def is_cocycle(self, gs, hs):
        Gt, Ht, t, al = self.Gt, self.Ht, self.t, self.al
        g = dict(zip(self.doubles, gs))
        h = dict(zip(self.triples, hs))
        for i, j, k in self.triples:
            if Gt[Gt[g[i, j]][g[j, k]]][t[h[i, j, k]]] != g[i, k]:
                return False
        for i, j, k, l in self.quads:
            left = Ht[al[self.g_inv[g[k, l]]][h[i, j, k]]][h[i, k, l]]
            if left != Ht[h[j, k, l]][h[i, j, l]]:
                return False
        return True

    def cocycles(self):
        nG, nH = len(self.Gt), len(self.Ht)
        return [(gs, hs)
                for gs in itertools.product(range(nG), repeat=len(self.doubles))
                for hs in itertools.product(range(nH), repeat=len(self.triples))
                if self.is_cocycle(gs, hs)]

    def moves(self):
        """Single-site changes: one lam_i != 1, or one b_ij != 1."""
        out = []
        for c in self.charts:
            out += [({c: lam}, {}) for lam in range(len(self.Gt)) if lam != self.eG]
        for d in self.doubles:
            out += [({}, {d: b}) for b in range(len(self.Ht)) if b != self.eH]
        return out

    def moved(self, state, lam, b):
        """g'_ij = lam_i g_ij t(b_ij) lam_j^-1, and h' from the changed squares."""
        Gt, Ht, t, al = self.Gt, self.Ht, self.t, self.al
        g = dict(zip(self.doubles, state[0]))
        h = dict(zip(self.triples, state[1]))
        L = {c: lam.get(c, self.eG) for c in self.charts}
        B = {d: b.get(d, self.eH) for d in self.doubles}
        g2 = {(i, j): Gt[Gt[Gt[L[i]][g[i, j]]][t[B[i, j]]]][self.g_inv[L[j]]]
              for i, j in self.doubles}
        h2 = []
        for i, j, k in self.triples:
            pre = Gt[Gt[L[i]][g[i, j]]][g[j, k]]
            word = Ht[Ht[al[Gt[L[i]][g[i, k]]][B[i, k]]][al[pre][h[i, j, k]]]][
                Ht[self.h_inv[al[pre][B[j, k]]]][self.h_inv[al[Gt[L[i]][g[i, j]]][B[i, j]]]]]
            source = Gt[g2[i, j]][g2[j, k]]
            h2.append(al[self.g_inv[source]][word])
        return tuple(g2[d] for d in self.doubles), tuple(h2)

    def census(self):
        """Cocycle count, classes, and the least state of each class."""
        states = self.cocycles()
        index = {s: n for n, s in enumerate(states)}
        parent = list(range(len(states)))

        def root(n):
            while parent[n] != n:
                parent[n] = parent[parent[n]]
                n = parent[n]
            return n

        moves = self.moves()
        for n, s in enumerate(states):
            for lam, b in moves:
                other = self.moved(s, lam, b)
                if other not in index:
                    raise AssertionError(f"move {lam} {b} leaves the cocycles")
                a, c = root(n), root(index[other])
                if a != c:
                    parent[max(a, c)] = min(a, c)
        classes = {}
        for n, s in enumerate(states):
            classes.setdefault(root(n), []).append(s)
        return {"cocycles": len(states), "classes": [min(m) for m in classes.values()],
                "class_of": {s: root(n) for n, s in enumerate(states)}}

    def decode(self, rep):
        gs = tuple(rep["g"][",".join(map(str, d))] for d in self.doubles)
        hs = tuple(rep["h"][",".join(map(str, t))] for t in self.triples)
        return gs, hs


def check_census(out, closed, module, nerve_name, brute=None):
    """Problems with one census result; `brute` is ClosedForm.census() or None."""
    problems = []
    label = f"{module}/{nerve_name}"
    reps = [closed.decode(r) for r in out["representatives"]]
    for rep in reps:
        if not closed.is_cocycle(*rep):
            problems.append(f"{label}: representative {rep} breaks the triangle "
                            "or tetrahedron condition")
    if module.startswith("GERBE(Z"):
        n = int(module[len("GERBE(Z"):-1])
        expected = (n ** 4, n) if nerve_name == "sphere" else (n ** 3, 1)
    else:
        expected = (brute["cocycles"], len(brute["classes"]))
        classes = [brute["class_of"].get(r) for r in reps]
        if len(set(classes)) != len(reps) or None in classes:
            problems.append(f"{label}: representatives are not one per class")
        if sorted(reps) != sorted(brute["classes"]):
            problems.append(f"{label}: representatives are not the least state of "
                            "each class")
    got = (out["cocycles"], out["orbits"])
    if got != expected:
        problems.append(f"{label}: {got[0]} cocycles in {got[1]} classes, "
                        f"expected {expected[0]} in {expected[1]}")
    return problems


def verify(inp, firsts):
    problems = []
    for m, nv in inp.pairs:
        closed = ClosedForm(inp.modules[m], inp.nerves[(m, nv)])
        brute = None if m.startswith("GERBE(Z") else closed.census()
        problems += check_census(firsts[f"classify/{m}/{nv}"], closed, m, nv, brute)
    return problems


def details(inp, medians, firsts):
    per_pair = {slug(m, nv): medians[f"classify/{m}/{nv}"] for m, nv in inp.pairs}
    return {"census_s": sum(per_pair.values()), "classify_s": per_pair,
            "chart_labels": {slug(m, nv): inp.nerves[(m, nv)].charts
                             for m, nv in inp.pairs}}


def layer_counts(inp, firsts, medians):
    """Census sizes per round (candidates |G|^doubles |H|^triples, cocycles,
    coboundary moves tried) and each pair's classify time."""
    candidates = cocycles = moves = 0
    for m, nv in inp.pairs:
        cm, cover = inp.modules[m], inp.nerves[(m, nv)]
        found = firsts[f"classify/{m}/{nv}"]["cocycles"]
        candidates += cm.G.order ** len(cover.doubles) * cm.H.order ** len(cover.triples)
        cocycles += found
        moves += found * (len(cover.charts) * (cm.G.order - 1)
                          + len(cover.doubles) * (cm.H.order - 1))
    return {"cech.candidates": candidates, "cech.cocycles": cocycles,
            "cech.cocycle_yield": cocycles / candidates, "cech.orbit_moves": moves,
            **{f"cech.classify_s.{slug(m, nv)}": medians[f"classify/{m}/{nv}"]
               for m, nv in inp.pairs}}
