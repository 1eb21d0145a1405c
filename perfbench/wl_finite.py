"""Workload `finite`: the finite 2-cell engine through the library API.

One round runs exhaustive `check_interchange` and `validate_crossed_module`
on each of the seven `shipped_finite_names()`, and `eckmann_hilton_probe` on
PEIFFER_BROKEN(S3). The seed fixes the order of the operations in a round.
Only groups.FiniteGroup, crossed and twocells do work here: no geometry,
forms or transport runs.

Every verdict is compared with the crossed-module identities evaluated
directly on the module's Cayley tables, apart from the 2-cell engine.
"""

import random
import re
from types import SimpleNamespace

import numpy as np

from twogauge import (check_interchange, crossed_module, eckmann_hilton_probe,
                      peiffer_violating_fixture, shipped_finite_names,
                      validate_crossed_module)

from harness import OK, Op, require

BROKEN = "PEIFFER_BROKEN(S3)"
_CASES = re.compile(r"(\d+)/(\d+) cases \(exhaustive\)")


def prepare(seed):
    inp = SimpleNamespace()
    inp.names = list(shipped_finite_names())
    random.Random(seed).shuffle(inp.names)
    inp.modules = {name: crossed_module(name) for name in inp.names}
    inp.broken = peiffer_violating_fixture()
    inp.tables = {}
    return inp


class Tables:
    """A finite crossed module as integer arrays, read once from its maps."""

    def __init__(self, cm):
        G, H = cm.G, cm.H
        self.G = np.asarray(G.table)
        self.H = np.asarray(H.table)
        self.names = list(H.names)
        self.t = np.array([cm.t(h) for h in H.elements()])
        self.alpha = np.array([[cm.alpha(g, h) for h in H.elements()]
                               for g in G.elements()])

    @staticmethod
    def _identity_and_inverse(table):
        n = len(table)
        e = next(a for a in range(n) if np.array_equal(table[a], np.arange(n)))
        inv = np.array([int(np.nonzero(table[a] == e)[0][0]) for a in range(n)])
        return e, inv

    def axioms(self):
        """Each crossed-module identity, evaluated over all tuples at once."""
        Gt, Ht, t, al = self.G, self.H, self.t, self.alpha
        eG, g_inv = self._identity_and_inverse(Gt)
        _, h_inv = self._identity_and_inverse(Ht)
        g = np.arange(len(Gt))[:, None]
        h = np.arange(len(Ht))
        h1, h2 = h[:, None], h[None, :]
        return {
            "t-homomorphism": bool(np.all(t[Ht[h1, h2]] == Gt[t[h1], t[h2]])),
            "alpha-identity": bool(np.all(al[eG] == h)),
            "alpha-automorphism": bool(np.all(
                al[:, Ht] == Ht[al[:, :, None], al[:, None, :]])),
            "alpha-action": bool(np.all(
                al[Gt[:, :, None], h[None, None, :]]
                == al[np.arange(len(Gt))[:, None, None], al[None, :, :]])),
            "equivariance": bool(np.all(t[al] == Gt[Gt[g, t[None, :]], g_inv[g]])),
            "peiffer": bool(np.all(al[t[h1], h2] == Ht[Ht[h1, h2], h_inv[h1]])),
        }

    def commute(self, a, b):
        return self.H[a, b] == self.H[b, a]


def _tables(inp, name, cm):
    if name not in inp.tables:
        inp.tables[name] = Tables(cm)
    return inp.tables[name]


def _same_report(out, first):
    if first is not None:
        require(out.to_dict() == first.to_dict(), "report differs from the first round's")


def check_interchange_report(report, tables):
    """Verdict and exhaustive case count against the table identities."""
    axioms = tables.axioms()
    expected = axioms["peiffer"] and axioms["equivariance"]
    total = len(tables.G) ** 2 * len(tables.H) ** 4
    check = report.check("interchange")
    found = _CASES.fullmatch(check.detail or "")
    require(found is not None, f"interchange detail {check.detail!r} is not exhaustive")
    agree, cases = int(found.group(1)), int(found.group(2))
    require(cases == total, f"{cases} interchange cases, expected |G|^2|H|^4 = {total}")
    require((check.verdict == "PASS") == expected,
            f"interchange verdict {check.verdict}, table identities give {expected}")
    require((agree == cases) == expected, f"{agree}/{cases} cases agree")


def check_validate_report(report, tables):
    for name, holds in tables.axioms().items():
        verdict = report.check(name).verdict
        require(verdict == ("PASS" if holds else "FAIL"),
                f"{name} verdict {verdict}, Cayley tables say {holds}")


def check_probe_report(report, tables):
    abelian = all(tables.commute(a, b) for a in range(len(tables.H))
                  for b in range(len(tables.H)))
    check = report.check("pastings-agree")
    require((check.verdict == "PASS") == abelian,
            f"pastings-agree verdict {check.verdict} for a fiber that is "
            f"{'' if abelian else 'not '}abelian")
    if not abelian:
        w = check.witness
        a, b = tables.names.index(w["h1"]), tables.names.index(w["h2"])
        require(not tables.commute(a, b),
                f"witness ({w['h1']}, {w['h2']}) commutes in the fiber's table")


def _checker(inp, name, cm, compare):
    def check(out, first):
        require(not isinstance(out, Exception), f"raised {out!r}")
        compare(out, _tables(inp, name, cm))
        _same_report(out, first)
        return OK
    return check


def operations(inp):
    ops = []
    for name in inp.names:
        cm = inp.modules[name]
        ops.append(Op(f"interchange/{name}", lambda cm=cm: check_interchange(cm),
                      _checker(inp, name, cm, check_interchange_report)))
        ops.append(Op(f"validate/{name}", lambda cm=cm: validate_crossed_module(cm),
                      _checker(inp, name, cm, check_validate_report)))
    ops.append(Op(f"eckmann-hilton/{BROKEN}",
                  lambda: eckmann_hilton_probe(inp.broken),
                  _checker(inp, BROKEN, inp.broken, check_probe_report)))
    return ops


def verify(inp, firsts):
    return []


def interchange_cases(inp):
    return sum(cm.G.order ** 2 * cm.H.order ** 4 for cm in inp.modules.values())


def details(inp, medians, firsts):
    seconds = sum(medians[f"interchange/{name}"] for name in inp.names)
    return {"interchange_cases": interchange_cases(inp),
            "interchange_s": seconds,
            "interchange_cases_per_s": interchange_cases(inp) / seconds,
            "module_order": inp.names}


def layer_counts(inp, firsts, medians):
    return {}
