"""Self-test of the benchmark's checkers: each must accept the program's real
output and reject a deliberately wrong one.

    python3 perfbench/selftest.py

Wrong outputs: an abelian cell_h and an su2 target holonomy moved by 1e-3,
census counts off by one, an interchange case count off by one, a validate
verdict flipped, and a documented FAIL verdict replaced by PASS. Exits 0
when every checker behaves, 1 otherwise. Takes a few seconds.
"""

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402,F401  (pins BLAS threads before numpy loads)


def main():
    import numpy as np

    import wl_census
    import wl_checks
    import wl_finite
    import wl_surface
    from harness import Mismatch
    from twogauge import (check_interchange, classify_finite, crossed_module, nerve,
                          surface_holonomy, validate_crossed_module)

    results = []

    def expect(name, accepted, rejected):
        ok = accepted and rejected
        results.append(ok)
        print(f"{'ok  ' if ok else 'BAD '} {name}: real output "
              f"{'accepted' if accepted else 'REJECTED'}, wrong output "
              f"{'rejected' if rejected else 'ACCEPTED'}")

    def raises(fn):
        try:
            fn()
        except Mismatch:
            return True
        return False

    # surface: abelian cell_h and su2 target holonomy, moved by 1e-3
    inp = wl_surface.prepare(0)
    grid = wl_surface.ABELIAN_GRID
    h_n = surface_holonomy(inp.abelian, inp.square, grid=grid).h
    h_half = surface_holonomy(inp.abelian, inp.square, grid=grid // 2).h
    expect("abelian cell_h + 1e-3",
           not wl_surface.check_abelian(h_n, h_half),
           bool(wl_surface.check_abelian(h_n + 1e-3, h_half)))
    A_at = wl_surface.one_form_matrices(inp.su2.doc["forms"]["A"]["components"],
                                        inp.cm.G.algebra.basis)
    target = wl_surface.polyline_holonomy(A_at, [(0, 0), (0, 1), (1, 1), (1, 0)])
    W_n = surface_holonomy(inp.conn, inp.square, grid=wl_surface.GRID).target_holonomy
    W_half = surface_holonomy(inp.conn, inp.square,
                              grid=wl_surface.GRID // 2).target_holonomy

    def target_problems(W):
        return wl_surface.check_converges(
            "target", float(np.linalg.norm(W - target)),
            float(np.linalg.norm(W_half - target)), wl_surface.TARGET_LIMIT)
    expect("su2 target holonomy + 1e-3", not target_problems(W_n),
           bool(target_problems(W_n + 1e-3)))

    # census: counts off by one, on a formula pair and a brute-force pair
    for module, nerve_name in (("GERBE(Z3)", "sphere"), ("AUT(Z5)", "triangle")):
        cm, cover = crossed_module(module), nerve(nerve_name)
        out = classify_finite(cm, cover)
        closed = wl_census.ClosedForm(cm, cover)
        brute = None if module.startswith("GERBE") else closed.census()
        for key in ("cocycles", "orbits"):
            wrong = dict(out, **{key: out[key] + 1})
            expect(f"census {module}/{nerve_name} {key} + 1",
                   not wl_census.check_census(out, closed, module, nerve_name, brute),
                   bool(wl_census.check_census(wrong, closed, module, nerve_name, brute)))

    # finite: interchange case count off by one, validate verdict flipped
    cm = crossed_module("AUT(Z5)")
    tables = wl_finite.Tables(cm)
    report = check_interchange(cm)
    wrong = copy.deepcopy(report)
    agree, total = wrong.checks[0].detail.split(" ")[0].split("/")
    wrong.checks[0].detail = f"{agree}/{int(total) + 1} cases (exhaustive)"
    expect("interchange case count + 1",
           not raises(lambda: wl_finite.check_interchange_report(report, tables)),
           raises(lambda: wl_finite.check_interchange_report(wrong, tables)))
    report = validate_crossed_module(cm)
    wrong = copy.deepcopy(report)
    wrong.check("peiffer").verdict = "FAIL"
    expect("validate peiffer PASS -> FAIL",
           not raises(lambda: wl_finite.check_validate_report(report, tables)),
           raises(lambda: wl_finite.check_validate_report(wrong, tables)))

    # checks: a documented FAIL replaced by PASS
    for command, scenario, name in (("cocycle", "corrupted_s3", "triangle(0,2,3)"),
                                    ("interchange", "eh_probe", "pastings-agree")):
        code, text, _ = wl_checks.invoke([command, "--scenario", f"{scenario}.scn"])
        doc = json.loads(text)
        wrong = copy.deepcopy(doc)
        for check in wrong["report"]["checks"]:
            if check["name"] == name:
                check["verdict"] = "PASS"
        expect(f"{command} {scenario}: {name} FAIL -> PASS",
               not raises(lambda: wl_checks.check_report(command, scenario, code, doc)),
               raises(lambda: wl_checks.check_report(command, scenario, code, wrong)))

    print(f"{sum(results)}/{len(results)} checkers behave")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
