"""Scenario files and the command-line front end.

Exit-code contract: 0 when every check passes, 1 when any check fails,
2 for usage or configuration trouble (the run never started).  JSON
output must be byte-stable for a fixed seed because reports get diffed
across CI runs.  Wall-clock chatter goes to stderr only.
"""

import json
import math
import os
import subprocess
import sys
import textwrap
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from twogauge import cli
from twogauge.errors import ConfigError
from twogauge.report import jsonify
from twogauge.scenario import (
    DEFAULT_TOLERANCES,
    find_scenario,
    load_scenario,
    scenario_from_dict,
    serialize_scenario,
    shipped_scenarios,
)


# ---------------------------------------------------------------- loading


def _write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(p)


def test_empty_file_reports_missing_module(tmp_path):
    path = _write(tmp_path, "empty.scn", "")
    with pytest.raises(ConfigError) as exc:
        load_scenario(path)
    assert "missing crossed_module" in str(exc.value)


def test_malformed_json_rejected(tmp_path):
    path = _write(tmp_path, "bad.scn", "{this is not json")
    with pytest.raises(ConfigError):
        load_scenario(path)


def test_top_level_must_be_an_object(tmp_path):
    path = _write(tmp_path, "list.scn", "[1, 2, 3]")
    with pytest.raises(ConfigError):
        load_scenario(path)


def test_unknown_keys_flagged_by_name(tmp_path):
    path = _write(tmp_path, "extra.scn",
                  {"crossed_module": "CONJ(S3)", "wibble": 1})
    with pytest.raises(ConfigError) as exc:
        load_scenario(path)
    assert "wibble" in str(exc.value)


def test_all_errors_collected_in_one_pass(tmp_path):
    # One load should surface every problem, not bail at the first.
    doc = {"crossed_module": "CONJ(S3)", "dim": -2, "seed": "soon",
           "tolerances": {"bogus": 1e-3}, "wibble": 1}
    path = _write(tmp_path, "multi.scn", doc)
    with pytest.raises(ConfigError) as exc:
        load_scenario(path)
    assert len(exc.value.errors) >= 4


def test_form_in_wrong_algebra_gets_one_clear_diagnostic(tmp_path):
    doc = {"crossed_module": "CONJ(SU2)", "dim": 2,
           "forms": {"A": {"algebra": "fiber", "degree": 1,
                           "components": {}}}}
    path = _write(tmp_path, "swapped.scn", doc)
    with pytest.raises(ConfigError) as exc:
        load_scenario(path)
    messages = [e for e in exc.value.errors if "must take values" in e]
    assert len(messages) == 1
    assert "base algebra" in messages[0]


def test_shipped_scenarios_resolve_by_basename(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    scn = load_scenario("abelian.scn")
    assert scn.module.name == "GERBE(U1)"
    assert find_scenario("abelian.scn").endswith("abelian.scn")


def test_every_shipped_scenario_round_trips():
    names = shipped_scenarios()
    assert len(names) >= 9
    for name in names:
        scn = load_scenario(name)
        text = serialize_scenario(scn)
        again = scenario_from_dict(json.loads(text), name=scn.name)
        assert again == scn, name


def test_round_trip_through_a_file(tmp_path):
    scn = load_scenario("su2_charts.scn")
    path = tmp_path / "copy.scn"
    path.write_text(serialize_scenario(scn))
    again = load_scenario(str(path))
    assert again.to_dict() == scn.to_dict()


# ---------------------------------------------------------------- exit codes


PASSING = [
    ["validate", "--scenario", "abelian.scn"],
    ["interchange", "--scenario", "abelian.scn"],
    ["holonomy-path", "--scenario", "su2_charts.scn"],
    ["holonomy-surface", "--scenario", "su2_charts.scn"],
    ["fake-curvature", "--scenario", "kernel3d.scn"],
    ["transitions", "--scenario", "su2_charts.scn"],
    ["cocycle", "--scenario", "s3_cocycle.scn"],
    ["classify", "--scenario", "flip_census.scn"],
]

FAILING = [
    ["interchange", "--scenario", "eh_probe.scn"],
    ["cocycle", "--scenario", "corrupted_s3.scn"],
    ["fake-curvature", "--scenario", "su2_nonflat.scn"],
    ["holonomy-surface", "--scenario", "su2_nonflat.scn"],
    ["transitions", "--scenario", "transitions_perturbed.scn"],
]


@pytest.mark.parametrize("argv", PASSING, ids=lambda a: "-".join(a[::2]))
def test_exit_zero_when_all_checks_pass(argv, capsys):
    assert cli.run(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert doc["report"]["verdict"] == "PASS"


@pytest.mark.parametrize("argv", FAILING, ids=lambda a: "-".join(a[::2]))
def test_exit_one_when_any_check_fails(argv, capsys):
    assert cli.run(argv) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["verdict"] == "FAIL"
    bad = [c for c in doc["report"]["checks"] if c["verdict"] == "FAIL"]
    assert bad


def test_exit_two_usage_and_config():
    assert cli.run(["no-such-command", "--scenario", "abelian.scn"]) == 2
    assert cli.run(["validate", "--scenario", "abelian.scn", "--bogus"]) == 2
    assert cli.run(["validate", "--scenario", "does_not_exist.scn"]) == 2
    # abelian.scn carries no path, so path holonomy cannot start
    assert cli.run(["holonomy-path", "--scenario", "abelian.scn"]) == 2


def test_classification_budget_refusal(capsys):
    # CONJ(S3) on the tetrahedron nerve: 6^10 candidate assignments
    assert cli.run(["classify", "--scenario", "s3_cocycle.scn"]) == 2
    err = capsys.readouterr().err
    assert "refusing to run" in err
    assert "60466176" in err


def test_help_exits_zero():
    assert cli.run(["--help"]) == 0


# ---------------------------------------------------------------- output


def test_reports_are_byte_identical_across_runs(capsys):
    argv = ["validate", "--scenario", "abelian.scn", "--seed", "7"]
    cli.run(argv)
    first = capsys.readouterr().out
    cli.run(argv)
    second = capsys.readouterr().out
    assert first == second
    assert first.encode() == second.encode()


def test_json_is_compact_and_sorted(capsys):
    cli.run(["validate", "--scenario", "abelian.scn"])
    out = capsys.readouterr().out
    assert out.endswith("\n")
    doc = json.loads(out)
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    assert out == canonical


def test_every_residual_travels_with_its_tolerance(capsys):
    cli.run(["transitions", "--scenario", "su2_charts.scn"])
    doc = json.loads(capsys.readouterr().out)
    for check in doc["report"]["checks"]:
        if check.get("residual") is not None:
            assert check.get("tolerance") is not None, check["name"]


# a shipped run whose report holds each tolerance a scenario may override
TOLERANCE_READERS = {"fake": "holonomy-surface", "surface": "holonomy-surface",
                     "transition": "transitions", "holonomy": "holonomy-path"}


def _tolerances(argv, capsys):
    cli.run(argv)
    return [check.get("tolerance") for check in json.loads(capsys.readouterr().out)
            ["report"]["checks"]]


@pytest.mark.parametrize("key", sorted(DEFAULT_TOLERANCES))
def test_every_tolerance_key_reaches_a_report(key, tmp_path, capsys):
    command = TOLERANCE_READERS[key]
    before = _tolerances([command, "--scenario", "su2_charts.scn"], capsys)
    path = _write(tmp_path, "tol.scn", _shipped_doc("su2_charts.scn", tolerances={key: 0.375}))
    after = _tolerances([command, "--scenario", path], capsys)
    assert DEFAULT_TOLERANCES[key] in before and 0.375 not in before
    assert [0.375 if t == DEFAULT_TOLERANCES[key] else t for t in before] == after


def test_a_tolerance_nothing_reads_is_unknown(tmp_path, capsys):
    path = _write(tmp_path, "tol.scn", _shipped_doc("abelian.scn", tolerances={"group": 1e-9}))
    assert cli.run(["validate", "--scenario", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "twogauge: configuration error: unknown tolerance 'group'\n"


def test_an_overflowing_perturb_fails_without_warnings(tmp_path, capsys):
    # a finite perturb whose scaled form overflows fails the connection law;
    # numpy's overflow warnings stay off stderr
    doc = _shipped_doc("transitions_perturbed.scn")
    doc["transition"] = {**doc["transition"], "perturb": 1e308}
    path = _write(tmp_path, "huge.scn", doc)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.run(["transitions", "--scenario", path]) == 1
    assert not caught, [str(w.message) for w in caught]
    captured = capsys.readouterr()
    assert [line[:6] for line in captured.err.splitlines()] == ["[wall]"]
    checks = {c["name"]: c["verdict"] for c in json.loads(captured.out)["report"]["checks"]}
    assert checks["connection-law"] == "FAIL"


@pytest.mark.parametrize("command, check", [("fake-curvature", "fake-curvature-vanishes"),
                                            ("transitions", "surface-law")])
def test_a_form_that_is_nan_everywhere_fails_its_check(command, check, tmp_path, capsys):
    # inf * 0 at every sample point: no norm is a number, so the residual is
    # NaN and the check fails, where a NaN-skipping maximum read 0.0 and passed
    doc = _shipped_doc("su2_charts.scn")
    doc["forms"]["B"]["components"]["1,12"] = "1e999 * 0"
    path = _write(tmp_path, "nan.scn", doc)
    assert cli.run([command, "--scenario", path]) == 1
    captured = capsys.readouterr()
    assert [line[:6] for line in captured.err.splitlines()] == ["[wall]"]
    checks = {c["name"]: c for c in _strict_json(captured.out)["report"]["checks"]}
    assert checks[check]["verdict"] == "FAIL"
    assert checks[check]["residual"] == "NaN"
    assert cli.run([command, "--scenario", path, "--format", "text"]) == 1
    assert f"FAIL    {check}  residual NaN (tolerance" in capsys.readouterr().out


def _strict_json(text):
    """json.loads, refusing the NaN and Infinity that strict JSON does not have."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_jsonify_writes_non_finite_numbers_as_strings():
    values = [math.nan, math.inf, -math.inf, np.float32("nan"), np.float64("-inf"),
              complex(math.nan, 1.0), np.complex128(complex(2.0, math.inf)),
              np.array([1.0, math.nan]), {"x": 0.5}]
    got = jsonify(values)
    assert got == ["NaN", "Infinity", "-Infinity", "NaN", "-Infinity",
                   {"re": "NaN", "im": 1.0}, {"re": 2.0, "im": "Infinity"},
                   [1.0, "NaN"], {"x": 0.5}]
    assert _strict_json(json.dumps(got, allow_nan=False)) == got


def test_a_connection_that_is_not_fake_flat_skips_the_kernel_check(tmp_path, capsys):
    doc = _shipped_doc("kernel3d.scn")
    doc["forms"]["B"]["components"]["1,12"] = "x3 + 1"
    path = _write(tmp_path, "bent.scn", doc)
    assert cli.run(["fake-curvature", "--scenario", path]) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["report"]["checks"]}
    assert checks["fake-curvature-vanishes"]["verdict"] == "FAIL"
    assert checks["three-curvature-in-kernel"] == {
        "name": "three-curvature-in-kernel", "verdict": "SKIPPED",
        "detail": "connection is not fake flat"}


def test_wall_time_stays_on_stderr(capsys):
    cli.run(["validate", "--scenario", "abelian.scn"])
    captured = capsys.readouterr()
    assert "[wall]" not in captured.out
    assert "[wall]" in captured.err


def test_text_format_renders_verdict_lines(capsys):
    cli.run(["validate", "--scenario", "abelian.scn", "--format", "text"])
    out = capsys.readouterr().out
    assert out.startswith("# validate on abelian")
    assert "verdict: PASS" in out
    cli.run(["interchange", "--scenario", "eh_probe.scn", "--format", "text"])
    assert "FAIL    interchange  [648/1296 cases (exhaustive)]\n" in capsys.readouterr().out


def test_out_flag_writes_the_report_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    cli.run(["validate", "--scenario", "abelian.scn", "--out", str(target)])
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text())
    assert doc["command"] == "validate"


def test_converge_csv_table(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code = cli.run(["converge", "--scenario", "su2_charts.scn",
                    "--csv", str(target)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    rows = target.read_text().strip().splitlines()
    assert rows[0] == "grid,error"
    assert len(rows) == 1 + len(doc["payload"]["grids"])
    for row, n, err in zip(rows[1:], doc["payload"]["grids"],
                           doc["payload"]["errors"]):
        assert row == f"{n},{err!r}"


def test_seed_flag_overrides_scenario_seed(capsys):
    cli.run(["validate", "--scenario", "abelian.scn", "--seed", "99"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["seed"] == 99
    cli.run(["validate", "--scenario", "abelian.scn"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["seed"] == 42


def test_grid_flag_overrides_scenario_grid(capsys):
    cli.run(["holonomy-surface", "--scenario", "su2_charts.scn",
             "--grid", "16"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["payload"]["grid"] == 16


def test_classify_census_payload(capsys):
    cli.run(["classify", "--scenario", "gerbe_census.scn"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["payload"]["cocycles"] == 16
    assert doc["payload"]["orbits"] == 2


def test_cocycle_failure_names_the_tetrahedron(capsys):
    cli.run(["cocycle", "--scenario", "corrupted_s3.scn"])
    doc = json.loads(capsys.readouterr().out)
    bad = [c for c in doc["report"]["checks"] if c["verdict"] == "FAIL"]
    assert any("triangle" in c["name"] or "tetrahedron" in c["name"]
               for c in bad)
    assert any(c.get("witness") for c in bad)


# ---------------------------------------------------------------- bad input


def _refused(argv, capsys):
    """Exit 2 with one stderr line and nothing on stdout."""
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code == 2 and captured.out == "" and \
        len(captured.err.strip().splitlines()) == 1


def test_grid_override_is_validated_like_the_scenario_key(capsys):
    assert _refused(["holonomy-surface", "--scenario", "abelian_square.scn",
                     "--grid", "0"], capsys)


def test_seed_override_is_validated_like_the_scenario_key(capsys):
    assert _refused(["validate", "--scenario", "abelian.scn", "--seed", "-1"], capsys)


def test_unwritable_out_is_refused_without_a_file(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    assert _refused(["validate", "--scenario", "abelian.scn", "--out", str(target)],
                    capsys)
    assert not target.exists()


def test_an_out_that_is_a_directory_is_refused(tmp_path, capsys):
    assert _refused(["validate", "--scenario", "abelian.scn", "--out", str(tmp_path)],
                    capsys)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, flag, scenario", [
    ("validate", "--out", "abelian.scn"),
    ("converge", "--out", "su2_charts.scn"),
    ("converge", "--csv", "su2_charts.scn"),
])
def test_a_missing_output_directory_is_refused_before_the_run(command, flag, scenario,
                                                               tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setitem(cli._HANDLERS, command, lambda *args: calls.append(args))
    target = tmp_path / "missing" / "output"
    code = cli.run([command, "--scenario", scenario, flag, str(target)])
    captured = capsys.readouterr()
    assert (code, captured.out, calls) == (2, "", [])
    # the line the write itself would have raised
    with pytest.raises(OSError) as exc:
        open(target, "w")
    assert captured.err == f"twogauge: cannot write output: {exc.value}\n"
    assert not target.exists()


def test_an_output_file_name_without_a_directory_writes_here(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.run(["validate", "--scenario", "abelian.scn", "--out", "report.json"]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads((tmp_path / "report.json").read_text())["command"] == "validate"


def test_classify_refuses_an_invalid_module(tmp_path, capsys):
    path = _write(tmp_path, "broken.scn", {"crossed_module": "PEIFFER_BROKEN(S3)",
                                           "nerve": "tetrahedron"})
    assert _refused(["classify", "--scenario", path], capsys)


# sampled checks over zero samples are SKIPPED; a negative count never runs
SAMPLED_RUNS = [("fake-curvature", "su2_charts.scn"),
                ("fake-curvature", "kernel3d.scn"),
                ("transitions", "transitions_perturbed.scn"),
                ("validate", "su2_charts.scn"),
                ("interchange", "su2_charts.scn"),
                ("interchange", "abelian.scn")]


@pytest.mark.parametrize("command,scenario", SAMPLED_RUNS)
def test_zero_samples_skip_the_sampled_checks(command, scenario, capsys):
    code = cli.run([command, "--scenario", scenario, "--samples", "0"])
    doc = json.loads(capsys.readouterr().out)
    checks = doc["report"]["checks"]
    assert code == 0
    assert checks and all(c["verdict"] == "SKIPPED" for c in checks)
    assert any(c["detail"] == "no samples" for c in checks)


@pytest.mark.parametrize("command,scenario", SAMPLED_RUNS)
def test_negative_samples_are_refused(command, scenario, capsys):
    assert _refused([command, "--scenario", scenario, "--samples", "-1"], capsys)


def test_samples_key_follows_the_flag_rule(tmp_path):
    base = {"crossed_module": "CONJ(SU2)"}
    assert load_scenario(_write(tmp_path, "zero.scn", {**base, "samples": 0})).samples == 0
    with pytest.raises(ConfigError) as exc:
        load_scenario(_write(tmp_path, "neg.scn", {**base, "samples": -1}))
    assert "samples must be a non-negative integer" in str(exc.value)


def test_exhaustive_checks_ignore_zero_samples(capsys):
    assert cli.run(["interchange", "--scenario", "s3_cocycle.scn",
                    "--samples", "0"]) == 0
    check = json.loads(capsys.readouterr().out)["report"]["checks"][0]
    assert check["verdict"] == "PASS" and "(exhaustive)" in check["detail"]


def test_huge_cyclic_module_exits_two_at_once(tmp_path, capsys):
    # an n x n Cayley table would be built, and checked in O(n^3), before
    # any other size check
    path = _write(tmp_path, "huge.scn",
                  json.dumps({"crossed_module": "GERBE(Z99999999999)", "seed": 1}))
    started = time.perf_counter()
    assert cli.run(["validate", "--scenario", path]) == 2
    assert time.perf_counter() - started < 1.0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "cyclic order" in err


def _shipped_doc(name, **changes):
    with open(find_scenario(name), encoding="utf-8") as fh:
        doc = json.load(fh)
    return {**doc, **changes}


# JSON values of the wrong type, each at a key the scenario reads
MALFORMED = {
    "module-number": ("transitions_perturbed.scn", {"crossed_module": 7}),
    "forms-list": ("transitions_perturbed.scn", {"forms": ["A"]}),
    "form-number": ("transitions_perturbed.scn", {"forms": {"A": 5}}),
    "component-number": ("transitions_perturbed.scn", {"forms": {"A": {
        "algebra": "base", "degree": 1, "components": {"1,1": 3}}}}),
    "tolerances-text": ("transitions_perturbed.scn", {"tolerances": "x"}),
    "transition-list": ("transitions_perturbed.scn", {"transition": ["g"]}),
    "transition-g-number": ("transitions_perturbed.scn", {"transition": {"g": 5}}),
    "transition-a-list": ("transitions_perturbed.scn",
                          {"transition": {"g": ["x1", "x2", "0"], "a": ["x"]}}),
    "dim-text": ("transitions_perturbed.scn", {"dim": "x"}),
    "cocycle-number": ("s3_cocycle.scn", {"cocycle": 7}),
    "cocycle-g-list": ("s3_cocycle.scn", {"cocycle": {"g": [1]}}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_scenario_json_exits_two_with_one_line(case, tmp_path, capsys):
    name, changes = MALFORMED[case]
    path = _write(tmp_path, "bad.scn", _shipped_doc(name, **changes))
    code = cli.run(["validate", "--scenario", path])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert "Traceback" not in captured.err


# inline nerves: JSON true and 1.0 stood for the chart 1, and a double given
# as true was reported with Python's own TypeError text
LABELS = "must be a list of integer chart labels, got"
INLINE_NERVES = {
    "bool-in-double": ({"doubles": [[0, True], [1, 2], [0, 2]], "triples": [[0, 1, 2]]},
                       f"nerve doubles[0] {LABELS} [0, true]"),
    "double-given-as-true": ({"doubles": [True, [1, 2], [0, 2]]},
                             f"nerve doubles[0] {LABELS} true"),
    "bool-chart": ({"charts": [0, False, 2], "doubles": [[0, 2]]},
                   f"nerve charts {LABELS} [0, false, 2]"),
    "nested-label": ({"triples": [[0, 1, [2]]]}, f"nerve triples[0] {LABELS} [0, 1, [2]]"),
    "float-label": ({"doubles": [[0, 1.0], [1, 2], [0, 2]]},
                    f"nerve doubles[0] {LABELS} [0, 1.0]"),
    "doubles-number": ({"doubles": 3}, "nerve doubles must be a list of overlaps, got 3"),
    "no-charts": ({"charts": None}, f"nerve charts {LABELS} null"),
    # a repeated overlap was a second census unknown, and classify blamed the module
    "repeated-double": ({"doubles": [[0, 1], [1, 2], [0, 2], [0, 1]], "triples": [[0, 1, 2]]},
                        "nerve: overlap (0, 1) is declared more than once"),
    "repeated-triple": ({"doubles": [[0, 1], [1, 2], [0, 2]], "triples": [[0, 1, 2], [0, 1, 2]]},
                        "nerve: overlap (0, 1, 2) is declared more than once"),
}


@pytest.mark.parametrize("case", sorted(INLINE_NERVES))
def test_malformed_inline_nerve_is_named_by_key_and_value(case, tmp_path, capsys):
    changes, message = INLINE_NERVES[case]
    path = _write(tmp_path, "nerve.scn", {"crossed_module": "GERBE(Z2)",
                                          "nerve": {"charts": [0, 1, 2], **changes}})
    code = cli.run(["classify", "--scenario", path])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"twogauge: configuration error: {message}\n"


# cocycle keys that parse to one overlap: only the last value was kept
S3_COCYCLE = _shipped_doc("s3_cocycle.scn")["cocycle"]
COLLIDING_KEYS = {
    "spaces": ({"h": {**S3_COCYCLE["h"], "0, 2, 3": 5}},
               'cocycle h keys "0,2,3" and "0, 2, 3" both name (0, 2, 3)'),
    "plus-sign": ({"g": {**S3_COCYCLE["g"], "+0,1": 1}},
                  'cocycle g keys "0,1" and "+0,1" both name (0, 1)'),
    "leading-zero": ({"k": {"0": 0, "00": 1}}, 'cocycle k keys "0" and "00" both name 0'),
}


@pytest.mark.parametrize("case", sorted(COLLIDING_KEYS))
def test_cocycle_keys_naming_one_overlap_exit_two(case, tmp_path, capsys):
    changes, message = COLLIDING_KEYS[case]
    path = _write(tmp_path, "keys.scn",
                  _shipped_doc("s3_cocycle.scn", cocycle={**S3_COCYCLE, **changes}))
    code = cli.run(["cocycle", "--scenario", path])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"twogauge: configuration error: {message}\n"


def test_inline_alpha_leaving_h_exits_two(tmp_path, capsys):
    swap = [[0, 1], [1, 0]]
    path = _write(tmp_path, "leaves.scn", {"crossed_module": {
        "G": {"table": swap}, "H": {"table": swap}, "t": [0, 0], "alpha": [[0, 1], [1, 5]]}})
    assert _refused(["validate", "--scenario", path], capsys)


INLINE_COERCIONS = {
    # true was taken for 1 and 1.9 cut to 1 in the Cayley table itself
    "cayley-table": {"G": {"table": [[0, 1.9], [True, 0]]}, "H": {"table": [[0]]},
                     "t": [0], "alpha": [[0], [0]]},
    # the same in t and alpha
    "t-and-alpha": {"G": {"table": [[0, 1], [1, 0]]}, "H": {"table": [[0, 1], [1, 0]]},
                    "t": [0, True], "alpha": [[0, 1], [0, 1.9]]},
    "t-bool": {"G": {"table": [[0, 1], [1, 0]]}, "H": {"table": [[0, 1], [1, 0]]},
               "t": [0, True], "alpha": [[0, 1], [0, 1]]},
}


ONE, SWAP = [[0]], [[0, 1], [1, 0]]
INLINE_MALFORMED = {
    "t-outside-g": ({"G": {"table": ONE}, "H": {"table": SWAP}, "t": [0, 5],
                     "alpha": [[0, 1]]}, "t entry 5 is not an element of G (order 1)"),
    "t-negative": ({"G": {"table": ONE}, "H": {"table": SWAP}, "t": [0, -1],
                    "alpha": [[0, 1]]}, "t entry -1 is not an element of G (order 1)"),
    "alpha-outside-h": ({"G": {"table": ONE}, "H": {"table": SWAP}, "t": [0, 0],
                         "alpha": [[0, 7]]}, "alpha entry 7 is not an element of H (order 2)"),
    "names-not-a-list": ({"G": {"table": ONE, "names": 5}, "H": {"table": ONE},
                          "t": [0], "alpha": [[0]]}, "G names must be a list of strings, got 5"),
    "names-not-strings": ({"G": {"table": ONE}, "H": {"table": SWAP, "names": ["e", 1]},
                           "t": [0, 0], "alpha": [[0, 1]]},
                          "H names must be a list of strings, got ['e', 1]"),
    "names-too-few": ({"G": {"table": SWAP, "names": []}, "H": {"table": ONE},
                       "t": [0], "alpha": [[0], [0]]}, "G has 0 names for 2 elements"),
    "group-not-an-object": ({"G": ONE, "H": {"table": ONE}, "t": [0], "alpha": [[0]]},
                            "G must be an object with a table, got [[0]]"),
    "group-without-table": ({"G": {}, "H": {"table": ONE}, "t": [0], "alpha": [[0]]},
                            "G must be an object with a table, got {}"),
    "missing-keys": ({"G": {"table": ONE}, "alpha": [[0]]},
                     "inline crossed module needs H, t"),
    "unknown-key": ({"G": {"table": ONE}, "H": {"table": ONE}, "t": [0], "alpha": [[0]],
                     "zz": 1}, "inline crossed module has unknown key 'zz'"),
    "unknown-group-key": ({"G": {"table": ONE, "wibble": 1}, "H": {"table": ONE},
                           "t": [0], "alpha": [[0]]}, "G has unknown key 'wibble'"),
    "name-not-a-string": ({"name": [1], "G": {"table": ONE}, "H": {"table": ONE},
                           "t": [0], "alpha": [[0]]},
                          "inline crossed module name must be a string, got [1]"),
    "group-name-not-a-string": ({"G": {"table": ONE}, "H": {"table": ONE, "name": 5},
                                 "t": [0], "alpha": [[0]]}, "H name must be a string, got 5"),
    "every-fault-at-once": ({"name": [1], "zz": 1, "G": {"table": ONE, "wibble": 1},
                             "H": {"table": ONE}, "t": [0], "alpha": [[0]]},
                            "inline crossed module has unknown key 'zz'"),
}


@pytest.mark.parametrize("case", sorted(INLINE_MALFORMED))
def test_malformed_inline_modules_are_refused_by_key(case, tmp_path, capsys):
    spec, message = INLINE_MALFORMED[case]
    path = _write(tmp_path, "inline.scn", {"crossed_module": spec})
    code = cli.run(["validate", "--scenario", path])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"twogauge: configuration error: crossed_module: {message}\n"


@pytest.mark.parametrize("case", sorted(INLINE_COERCIONS))
def test_inline_tables_take_integers_only(case, tmp_path, capsys):
    path = _write(tmp_path, "coerced.scn", {"crossed_module": INLINE_COERCIONS[case]})
    code = cli.run(["validate", "--scenario", path])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "", captured.err
    assert len(captured.err.splitlines()) == 1
    assert "entries must be integer indices" in captured.err


def test_nan_surface_element_exits_two_with_one_line(tmp_path, capsys):
    # 1e999 * x1 is inf * 0 = nan at x1 = 0: the membership check refuses
    # the transported element, and the products that made it do not warn
    doc = _shipped_doc("abelian_square.scn")
    doc["forms"]["B"]["components"] = {"1,12": "1e999 * x1"}
    path = _write(tmp_path, "nan.scn", doc)
    code = cli.run(["holonomy-surface", "--scenario", path, "--grid", "4"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "twogauge: matrix is not in U1 (defect nan)\n"


@pytest.mark.parametrize("error", [RuntimeError("boom\nsecond line"),
                                   np.linalg.LinAlgError("Singular matrix")],
                         ids=["runtime", "linalg"])
def test_foreign_exception_exits_two_with_one_line(error, monkeypatch, capsys):
    def handler(*args):
        raise error
    monkeypatch.setitem(cli._HANDLERS, "validate", handler)
    code = cli.run(["validate", "--scenario", "abelian.scn"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert type(error).__name__ in captured.err and "Traceback" not in captured.err


# a fresh interpreter: this one has scipy loaded by other test modules
COLD_RUNS = textwrap.dedent("""
    import io, sys
    from contextlib import redirect_stderr, redirect_stdout
    import twogauge
    from twogauge import cli

    def quiet(*argv):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return cli.run(list(argv))

    codes = [quiet("classify", "--scenario", "gerbe_census.scn"),
             quiet("cocycle", "--scenario", "s3_cocycle.scn"),
             quiet("validate", "--scenario", "eh_probe.scn"),
             quiet("holonomy-surface", "--scenario", "abelian_square.scn",
                   "--grid", "8"),
             # U(1) samples: a 1x1 exp needs no scipy
             quiet("interchange", "--scenario", "abelian.scn"),
             quiet("interchange", "--scenario", "abelian_square.scn"),
             # and a 1x1 log is np.log
             quiet("validate", "--scenario", "abelian.scn"),
             quiet("validate", "--scenario", "abelian_square.scn")]
    print(codes, "scipy" in sys.modules)
    quiet("validate", "--scenario", "su2_charts.scn")  # samples SU(2) by exp
    # and takes 2x2 logs without logm, whose estimators need these two
    print("scipy.linalg" in sys.modules, "scipy.sparse" in sys.modules,
          "scipy.special" in sys.modules)
""")


def test_scipy_loads_only_where_a_run_needs_it():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", COLD_RUNS], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[0, 0, 1, 0, 0, 0, 0, 0] False",
                                       "True False False"]


# a usage error, then runs whose options differ: each as a fresh process gives it
PARSER_REUSE = [
    ["validate", "--scenario", "abelian.scn", "--bogus"],
    ["transitions", "--scenario", "su2_charts.scn", "--samples", "3", "--format", "text"],
    ["transitions"],
    ["transitions", "--scenario", "transitions_perturbed.scn", "--samples", "2"],
]


def _without_wall(err):
    return [line for line in err.splitlines() if not line.startswith("[wall]")]


def test_the_parser_built_once_answers_as_fresh_processes_do(capsys):
    src = Path(__file__).resolve().parents[1] / "src"
    for argv in PARSER_REUSE:
        fresh = subprocess.run([sys.executable, "-m", "twogauge.cli", *argv],
                               capture_output=True, text=True, timeout=120,
                               env={**os.environ, "PYTHONPATH": str(src)})
        code = cli.run(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, _without_wall(captured.err)) == \
            (fresh.returncode, fresh.stdout, _without_wall(fresh.stderr)), argv
    assert cli._parser() is cli._parser()
