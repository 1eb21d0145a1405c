"""The exit-code contract under generated command lines and scenarios.

Every run goes through `cli.run` in this process with redirected streams.
Whatever the input, the exit code is 0, 1 or 2; stderr never holds a
traceback; exit 2 prints exactly one stderr line and no report; and exit 1
happens exactly when the report holds a FAIL. Runs stay small: grid and
samples are at most 4, integers in scenarios at most 4, and the crossed
modules drawn are ones whose every census takes well under a second.
Inline crossed modules and nerves are drawn as copies of shipped ones with
a few entries replaced, dropped or added.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from twogauge import cli
from twogauge.cech import NERVE_FIXTURES, nerve
from twogauge.crossed import crossed_module, shipped_finite_names, shipped_matrix_names
from twogauge.geometry import BIGON_FIXTURES, PATH_FIXTURES
from twogauge.groups import is_integer
from twogauge.scenario import _KNOWN_KEYS, find_scenario, shipped_scenarios


def _shipped_doc(name):
    with open(find_scenario(name), encoding="utf-8") as fh:
        return json.load(fh)


SCENARIOS = {name: _shipped_doc(name) for name in shipped_scenarios()}


def _with(name, **changes):
    return {**SCENARIOS[name], **changes}


# Inputs that once passed or fitted silently; each must exit 2 with one line.
CONTRACT_GAPS = {
    # values on overlaps that no check reads were never checked
    "cocycle-unread-values": ("cocycle", {
        "crossed_module": "CONJ(S3)",
        "nerve": {"charts": [0, 1, 2], "doubles": [[0, 1], [1, 2], [0, 2], [2, 2]],
                  "triples": []},
        "cocycle": {"g": {"0,1": 17, "1,2": "x", "0,2": 0, "2,2": 0}}}),
    # JSON true was taken for the element 1
    "cocycle-bool-value": ("cocycle", _with("s3_cocycle.scn", cocycle={
        "g": {"0,1": True, "0,2": 4, "0,3": 3, "1,2": 3, "1,3": 4, "2,3": 4},
        "h": {"0,1,2": 0, "0,1,3": 3, "0,2,3": 0, "1,2,3": 4}})),
    # JSON true was taken for the number 1
    "bool-settings": ("validate", _with("abelian.scn", grid=True, samples=True, dim=True)),
    "bool-tolerance-and-perturb": ("transitions", _with(
        "transitions_perturbed.scn", tolerances={"transition": True},
        transition={**SCENARIOS["transitions_perturbed.scn"]["transition"],
                    "perturb": True})),
    # json reads NaN and Infinity: a non-finite perturb passed both laws at
    # residual 0, and an infinite tolerance passed any residual
    "perturb-nan": ("transitions", _with(
        "transitions_perturbed.scn",
        transition={**SCENARIOS["transitions_perturbed.scn"]["transition"],
                    "perturb": float("nan")})),
    "perturb-infinity": ("transitions", _with(
        "transitions_perturbed.scn",
        transition={**SCENARIOS["transitions_perturbed.scn"]["transition"],
                    "perturb": float("inf")})),
    "tolerance-infinity": ("transitions", _with(
        "transitions_perturbed.scn", tolerances={"transition": float("inf")})),
    # JSON true, and 1.0, were taken for the chart 1
    "nerve-bool-chart": ("classify", {
        "crossed_module": "GERBE(Z2)",
        "nerve": {"charts": [0, 1, 2], "doubles": [[0, True], [1, 2], [0, 2]]}}),
    "nerve-float-chart": ("classify", {
        "crossed_module": "GERBE(Z2)",
        "nerve": {"charts": [0, 1, 2], "doubles": [[0, 1.0], [1, 2], [0, 2]]}}),
    # a repeated overlap was a second census unknown, blamed on the module
    "nerve-repeated-overlap": ("classify", {
        "crossed_module": "FLIP(Z3)",
        "nerve": {"charts": [0, 1, 2], "doubles": [[0, 1], [1, 2], [0, 2], [0, 1]],
                  "triples": [[0, 1, 2]]}}),
    # (1, 0) beside (0, 1) was a second census unknown with no inverse law:
    # "24 cocycles in 2 classes" at exit 0, where the nerve without it has 12 in 1
    "nerve-reversed-double": ("classify", {
        "crossed_module": "FLIP(Z3)",
        "nerve": {"charts": [0, 1, 2], "doubles": [[0, 1], [1, 2], [0, 2], [1, 0]],
                  "triples": [[0, 1, 2]]}}),
    # g(1, 0) beside g(0, 1) was read as a value of its own: with only the
    # triple (0, 1, 2) declared, nothing tied it to g(0, 1)^-1 and it passed
    "cocycle-reversed-double": ("cocycle", {
        "crossed_module": "FLIP(Z3)",
        "nerve": {"charts": [0, 1, 2], "doubles": [[0, 1], [1, 2], [0, 2], [1, 0]],
                  "triples": [[0, 1, 2]]},
        "cocycle": {"g": {"0,1": 0, "1,2": 0, "0,2": 0, "1,0": 1}, "h": {"0,1,2": 0}}}),
    # an order fitted through one point, with a RankWarning on stderr
    "grids-one-size": ("converge", _with("su2_charts.scn", grids=[2])),
    "grids-repeated-size": ("converge", _with("su2_charts.scn", grids=[4, 4])),
    # an inline t or alpha value outside its group was refused only when the
    # module was first compiled, as a group error rather than a configuration one
    "inline-t-outside-g": ("validate", {"crossed_module": {
        "G": {"table": [[0]]}, "H": {"table": [[0, 1], [1, 0]]},
        "t": [0, 5], "alpha": [[0, 1]]}}),
    "inline-alpha-outside-h": ("validate", {"crossed_module": {
        "G": {"table": [[0]]}, "H": {"table": [[0, 1], [1, 0]]},
        "t": [0, 0], "alpha": [[0, 7]]}}),
}


def _run(argv, doc):
    """(exit code, stdout, stderr, warnings) of one in-process run, with
    `doc` written to the scenario file that "{scenario}" in argv stands for."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.scn")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        argv = [path if a == "{scenario}" else a for a in argv]
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.run(argv)
    return code, out.getvalue(), err.getvalue(), caught


def _assert_contract(code, out, err, caught):
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    # a warning would print on stderr outside the pytest capture
    assert not caught, [str(w.message) for w in caught]
    if code == 2:
        assert out == "" and len(err.splitlines()) == 1, err
        return
    assert [line for line in err.splitlines() if not line.startswith("[wall]")] == []
    checks = json.loads(out)["report"]["checks"]
    assert (code == 1) == any(c["verdict"] == "FAIL" for c in checks)


@pytest.mark.parametrize("case", sorted(CONTRACT_GAPS))
def test_contract_gap_exits_two_with_one_line(case):
    command, doc = CONTRACT_GAPS[case]
    code, out, err, caught = _run([command, "--scenario", "{scenario}"], doc)
    assert code == 2 and out == "" and len(err.splitlines()) == 1, err
    assert "configuration error" in err and not caught


# JSON values a scenario key might hold; integers are kept small so that any
# run a value admits stays short
SMALL_INT = st.integers(-3, 4)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | SMALL_INT
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
NAMES = {
    "crossed_module": st.sampled_from(
        shipped_finite_names() + shipped_matrix_names()
        + ["GERBE(Z99999999999)", "GERBE(Z0)", "AUT(Z0)", "nope"]),
    "nerve": st.sampled_from(NERVE_FIXTURES + ["nope"]),
    "path": st.sampled_from(PATH_FIXTURES + ["nope"]),
    "bigon": st.sampled_from(BIGON_FIXTURES + ["nope"]),
    "grids": st.lists(SMALL_INT, max_size=4),
}
FIELDS = sorted(_KNOWN_KEYS) + ["wibble"]
# the scenario key without which a subcommand cannot start
NEEDS = {"holonomy-path": "path", "converge": "path", "holonomy-surface": "bigon",
         "fake-curvature": "forms", "transitions": "transition", "cocycle": "cocycle",
         "classify": "nerve"}


@st.composite
def mutated_scenarios(draw, command):
    """A shipped scenario, mostly one that `command` reads, with up to two
    fields replaced or removed."""
    fits = [name for name, doc in SCENARIOS.items()
            if command not in NEEDS or NEEDS[command] in doc]
    names = fits if draw(st.integers(0, 3)) else sorted(SCENARIOS)
    doc = json.loads(json.dumps(SCENARIOS[draw(st.sampled_from(names))]))
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2]))):
        field = draw(st.sampled_from(FIELDS))
        inner = doc.get(field)
        if isinstance(inner, dict) and inner and draw(st.booleans()):
            # one level down: a cocycle value, a form, a tolerance, ...
            key = draw(st.sampled_from(sorted(inner)))
            doc[field] = {**inner, key: draw(JSON_VALUES)}
        elif draw(st.integers(0, 5)) == 0:
            doc.pop(field, None)
        else:
            doc[field] = draw(NAMES.get(field, JSON_VALUES))
    return doc


# at most one flaw per command line, appended last so that it wins over the
# value before it
FLAWS = [["--grid", "0"], ["--grid", "-1"], ["--samples", "-1"], ["--seed", "-1"],
         ["--seed", str(2 ** 64)], ["--seed", "x"], ["--grid"], ["--bogus"], "command"]


@st.composite
def cases(draw):
    """(argv, scenario document): a well-formed command line in half the
    cases, one flaw in the others."""
    command = draw(st.sampled_from(cli.COMMANDS))
    argv = [command, "--scenario", "{scenario}",
            "--grid", str(draw(st.sampled_from([1, 2, 4]))),
            "--samples", str(draw(st.sampled_from([0, 1, 4])))]
    if draw(st.booleans()):
        argv += ["--seed", str(draw(st.sampled_from([0, 7, 2 ** 64 - 1])))]
    flaw = draw(st.sampled_from(FLAWS)) if draw(st.booleans()) else []
    if flaw == "command":
        argv[0] = "no-such-command"
    else:
        argv += flaw
    return argv, draw(mutated_scenarios(command))


def _gap(name):
    command, doc = CONTRACT_GAPS[name]
    return [command, "--scenario", "{scenario}"], doc


@settings(max_examples=300, deadline=None)
@given(case=cases())
@example(case=_gap("cocycle-unread-values"))
@example(case=_gap("bool-settings"))
@example(case=_gap("grids-one-size"))
@example(case=(["validate", "--scenario", "{scenario}"],
               {"crossed_module": "GERBE(Z99999999999)"}))
@example(case=(["holonomy-surface", "--scenario", "{scenario}", "--grid", "0"],
               SCENARIOS["abelian_square.scn"]))
@example(case=(["validate", "--scenario", "{scenario}", "--seed", "-1"],
               SCENARIOS["abelian.scn"]))
def test_every_input_gets_a_defined_answer(case):
    _assert_contract(*_run(*case))


# ------------------------------------------------- inline modules and nerves

def _inline_module(name):
    """A shipped finite crossed module spelled as inline tables."""
    cm = crossed_module(name)
    G, H = cm.G, cm.H
    return {"G": {"table": G.table.tolist()}, "H": {"table": H.table.tolist()},
            "t": [cm.t(h) for h in H.elements()],
            "alpha": [[cm.alpha(g, h) for h in H.elements()] for g in G.elements()]}


def _inline_nerve(name):
    cover = nerve(name)
    return {"charts": list(cover.charts), "doubles": [list(d) for d in cover.doubles],
            "triples": [list(t) for t in cover.triples],
            "quads": [list(q) for q in cover.quads]}


def _lists(value):
    """Every list inside a JSON value."""
    if isinstance(value, dict):
        return [inner for v in value.values() for inner in _lists(v)]
    if isinstance(value, list):
        return [value] + [inner for v in value for inner in _lists(v)]
    return []


# entries that are not indices: booleans, floats, strings, out of range, nested;
# each draw is a fresh copy, so a later mutation cannot reach another draw
ODD_ENTRIES = st.sampled_from([True, False, 1.5, 1.0, -1, 5, 7, 10 ** 30, "1", None,
                               [], [0], [0, 1, 2]]).map(lambda v: json.loads(json.dumps(v)))


@st.composite
def mutated(draw, doc):
    """`doc` with up to two lists changed: an entry replaced by an odd one,
    an entry dropped (a ragged row), or an odd entry appended."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
        target = draw(st.sampled_from(_lists(doc)))
        op = draw(st.sampled_from(["replace", "drop", "append"])) if target else "append"
        if op == "append":
            target.append(draw(ODD_ENTRIES))
            continue
        k = draw(st.integers(0, len(target) - 1))
        if op == "drop":
            del target[k]
        else:
            target[k] = draw(ODD_ENTRIES)
    return doc


# shipped scenarios on finite modules, and the commands that read them
INLINE_COMMANDS = {"eh_probe.scn": ["validate", "interchange"],
                   "flip_census.scn": ["validate", "interchange", "classify"],
                   "gerbe_census.scn": ["validate", "interchange", "classify"],
                   "s3_cocycle.scn": ["validate", "cocycle", "classify"],
                   "corrupted_s3.scn": ["cocycle"]}


@st.composite
def inline_cases(draw):
    """(argv, scenario): a shipped finite scenario whose crossed module, nerve
    or both are written out inline and then mutated."""
    name = draw(st.sampled_from(sorted(INLINE_COMMANDS)))
    doc = json.loads(json.dumps(SCENARIOS[name]))
    inline_nerve = "nerve" in doc and draw(st.booleans())
    if not inline_nerve or draw(st.booleans()):
        doc["crossed_module"] = draw(mutated(_inline_module(doc["crossed_module"])))
    if inline_nerve:
        doc["nerve"] = draw(mutated(_inline_nerve(doc["nerve"])))
    command = draw(st.sampled_from(INLINE_COMMANDS[name]))
    return [command, "--scenario", "{scenario}", "--samples", "4"], doc


def _holds_non_integer(value):
    if isinstance(value, dict):
        return any(_holds_non_integer(v) for v in value.values())
    if isinstance(value, list):
        return any(_holds_non_integer(v) for v in value)
    return not is_integer(value)


@settings(max_examples=150, deadline=None)
@given(case=inline_cases())
@example(case=(["validate", "--scenario", "{scenario}"],
               {"crossed_module": {"G": {"table": [[0, 1.9], [True, 0]]},
                                   "H": {"table": [[0]]}, "t": [0], "alpha": [[0], [0]]}}))
@example(case=_gap("nerve-bool-chart"))
@example(case=_gap("nerve-float-chart"))
def test_inline_modules_and_nerves_get_a_defined_answer(case):
    code, out, err, caught = _run(*case)
    _assert_contract(code, out, err, caught)
    # chart labels are integers: a boolean, float or string is never one
    if isinstance(case[1].get("nerve"), dict) and _holds_non_integer(case[1]["nerve"]):
        assert code == 2, err
