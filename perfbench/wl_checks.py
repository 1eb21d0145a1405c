"""Workload `checks`: the check subcommands, run in-process through cli.run.

One round runs `validate` and `interchange` on abelian and su2_charts,
`interchange` on eh_probe, `fake-curvature` on su2_charts, kernel3d and
su2_nonflat, `transitions` on su2_charts and transitions_perturbed, and
`cocycle` on s3_cocycle and corrupted_s3, then four bad-input runs. The seed
becomes the `--seed` of every report that samples points, so it moves the
sample points and nothing else. Scenario parsing, symbolic form building,
expression differentiation, maps, expm and report serialization dominate
here; pointwise evaluation covers only tens of points.

Every exit code and verdict is compared with the outcome the README
documents, and each report must repeat byte for byte in later rounds.

Operations counted as failed, each failing in every round:
  - the four bad-input runs, until the CLI answers them as its contract says
    (exit 2 with one line on stderr, or a SKIPPED check over zero samples);
  - `fake-curvature` on su2_charts at the scenario's own seed, whose fake
    curvature must be exactly 0: B is minus the curvature of A written out
    exactly, but the report gives a residual of about 3e-16.
"""

import contextlib
import io
import json
import random
from pathlib import Path
from types import SimpleNamespace

from twogauge import cli, load_scenario

from harness import FAILED, OK, Op, require
from wl_finite import Tables

MISSING_OUT = Path(__file__).resolve().parent.parent / ".perfbench_out" / "no-such-dir" / "report.json"
DOC_KEYS = {"schema", "command", "scenario", "description", "seed", "report", "payload"}
ALL_AXIOMS = {name: "PASS" for name in ("t-homomorphism", "alpha-identity",
                                       "alpha-automorphism", "alpha-action",
                                       "equivariance", "peiffer")}
S3_TRIANGLES = ("triangle(0,1,2)", "triangle(0,1,3)", "triangle(0,2,3)", "triangle(1,2,3)")

# (command, scenario) -> (exit code, {check: verdict}) as the README documents
# them. A check not named here must not FAIL. The interchange law is
# equivalent to the Peiffer identity, which eh_probe breaks on purpose.
EXPECTED = {
    ("validate", "abelian"): (0, ALL_AXIOMS),
    ("validate", "su2_charts"): (0, ALL_AXIOMS),
    ("interchange", "abelian"): (0, {"interchange": "PASS", "pastings-agree": "PASS"}),
    ("interchange", "su2_charts"): (0, {"interchange": "PASS"}),
    ("interchange", "eh_probe"): (1, {"interchange": "FAIL", "pastings-agree": "FAIL"}),
    ("fake-curvature", "su2_charts"): (0, {"fake-curvature-vanishes": "PASS",
                                           "three-curvature-in-kernel": "SKIPPED"}),
    ("fake-curvature", "kernel3d"): (0, {"fake-curvature-vanishes": "PASS",
                                         "dt-of-3-curvature": "PASS"}),
    ("fake-curvature", "su2_nonflat"): (1, {"fake-curvature-vanishes": "FAIL",
                                            "three-curvature-in-kernel": "SKIPPED"}),
    ("transitions", "su2_charts"): (0, {"connection-law": "PASS", "surface-law": "PASS"}),
    ("transitions", "transitions_perturbed"): (1, {"connection-law": "FAIL",
                                                   "surface-law": "FAIL"}),
    ("cocycle", "s3_cocycle"): (0, {**{t: "PASS" for t in S3_TRIANGLES},
                                    "tetrahedron(0,1,2,3)": "PASS",
                                    "unit-laws": "SKIPPED"}),
    ("cocycle", "corrupted_s3"): (1, {**{t: "PASS" for t in S3_TRIANGLES},
                                      "triangle(0,2,3)": "FAIL",
                                      "tetrahedron(0,1,2,3)": "FAIL",
                                      "unit-laws": "SKIPPED"}),
}


def prepare(seed):
    """The CLI seed, and each scenario loaded once as a user's first run would."""
    inp = SimpleNamespace()
    inp.cli_seed = random.Random(seed).randrange(2 ** 32)
    inp.scenarios = {name: load_scenario(f"{name}.scn")
                     for name in sorted({scenario for _, scenario in EXPECTED})}
    return inp


def invoke(argv):
    """cli.run in-process: (exit code, stdout, stderr); exceptions propagate."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _document(text):
    """The report document on stdout, or None."""
    try:
        return json.loads(text)
    except ValueError:
        return None


def check_report(command, scenario, code, doc):
    """Exit code and verdicts against EXPECTED; raises Mismatch."""
    want_code, verdicts = EXPECTED[(command, scenario)]
    require(code == want_code, f"exit {code}, README documents {want_code}")
    require(set(doc) == DOC_KEYS and doc["schema"] == 1 and doc["command"] == command,
            "report document does not have the documented shape")
    checks = {c["name"]: c for c in doc["report"]["checks"]}
    for name, verdict in verdicts.items():
        require(name in checks, f"no {name} check")
        require(checks[name]["verdict"] == verdict,
                f"{name} is {checks[name]['verdict']}, README documents {verdict}")
    extra_fails = [n for n, c in checks.items()
                   if c["verdict"] == "FAIL" and verdicts.get(n) != "FAIL"]
    require(not extra_fails, f"undocumented FAIL: {extra_fails}")
    require(doc["report"]["verdict"] == ("PASS" if want_code == 0 else "FAIL"),
            f"report verdict {doc['report']['verdict']} with exit {code}")
    return checks


def _specific(inp, command, scenario, checks, doc):
    """What the README says beyond the verdicts; False marks the known fault."""
    if (command, scenario) == ("transitions", "su2_charts"):
        for name in ("connection-law", "surface-law"):
            require(checks[name]["residual"] == 0.0, f"{name} residual is not 0")
    elif (command, scenario) == ("transitions", "transitions_perturbed"):
        for name in ("connection-law", "surface-law"):
            r = checks[name]["residual"]
            require(1e-4 <= r <= 1e-2, f"{name} residual {r:.3g} is not about 1e-3")
    elif (command, scenario) == ("cocycle", "corrupted_s3"):
        for name in ("triangle(0,2,3)", "tetrahedron(0,1,2,3)"):
            require(checks[name]["residual"] == 1.0, f"{name} residual is not 1")
        require(checks["triangle(0,2,3)"]["witness"]["triple"] == [0, 2, 3],
                "triangle witness does not name the corrupted overlap")
    elif (command, scenario) == ("interchange", "eh_probe"):
        s3 = Tables(inp.scenarios[scenario].module)
        w = checks["pastings-agree"]["witness"]
        a, b = s3.names.index(w["h1"]), s3.names.index(w["h2"])
        require(not s3.commute(a, b), "witness pair commutes in S3")
    elif (command, scenario) == ("fake-curvature", "su2_charts"):
        return doc["payload"]["max_fake"] == 0.0
    return True


def _report_op(inp, command, scenario, seeded=True):
    argv = [command, "--scenario", f"{scenario}.scn"]
    if seeded:
        argv += ["--seed", str(inp.cli_seed)]

    def check(out, first):
        require(not isinstance(out, Exception), f"raised {out!r}")
        code, text, _ = out
        doc = _document(text)
        require(doc is not None, "stdout is not one JSON report")
        if seeded:
            require(doc["seed"] == inp.cli_seed, "report does not carry the --seed given")
        checks = check_report(command, scenario, code, doc)
        exact = _specific(inp, command, scenario, checks, doc)
        if first is not None:
            require(text.encode() == first[1].encode(),
                    "report bytes differ from the first round's")
        return OK if exact else FAILED

    return Op(f"{command}/{scenario}" + ("" if seeded else "@scenario-seed"),
              lambda: invoke(argv), check)


def _refused(out):
    """Exit 2 with one line on stderr and nothing on stdout."""
    if isinstance(out, Exception):
        return False
    code, text, err = out
    return code == 2 and text == "" and len(err.strip().splitlines()) == 1


def _bad_input_ops():
    def refused(out, first):
        return OK if _refused(out) else FAILED

    def refused_no_file(out, first):
        return OK if _refused(out) and not MISSING_OUT.exists() else FAILED

    def skipped(out, first):
        doc = None if isinstance(out, Exception) else _document(out[1])
        if doc is None:
            return FAILED
        checks = {c["name"]: c["verdict"] for c in doc["report"]["checks"]}
        return OK if checks.get("fake-curvature-vanishes") == "SKIPPED" else FAILED

    return [
        Op("bad-input/holonomy-surface --grid 0", lambda: invoke(
            ["holonomy-surface", "--scenario", "abelian_square.scn", "--grid", "0"]), refused),
        Op("bad-input/validate --seed -1", lambda: invoke(
            ["validate", "--scenario", "abelian.scn", "--seed", "-1"]), refused),
        Op("bad-input/validate --out missing-dir", lambda: invoke(
            ["validate", "--scenario", "abelian.scn", "--out", str(MISSING_OUT)]),
           refused_no_file),
        Op("bad-input/fake-curvature --samples 0", lambda: invoke(
            ["fake-curvature", "--scenario", "su2_charts.scn", "--samples", "0"]), skipped),
    ]


def operations(inp):
    ops = [_report_op(inp, command, scenario, seeded=(command, scenario)
                      != ("fake-curvature", "su2_charts"))
           for command, scenario in EXPECTED]
    return ops + _bad_input_ops()


def verify(inp, firsts):
    return []


def details(inp, medians, firsts):
    return {"reports_per_s": len(medians) / sum(medians.values()),
            "cli_seed": inp.cli_seed}


def layer_counts(inp, firsts, medians):
    return {}
