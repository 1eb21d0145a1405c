"""Scenario files: one JSON document describing what a run should compute.

A scenario names a crossed module and whatever material the subcommands
need: chart forms, a path or bigon fixture, transition data, a nerve with
gluing values, and numeric parameters. Loading resolves and validates
everything up front and reports every problem found, not just the first.

Keys (all optional unless stated):

    description      free text shown in reports
    crossed_module   required; catalog name or inline {G, H, t, alpha} tables
    dim              chart dimension for forms and maps (default 2)
    forms            {"A": {"algebra": "base", "degree": 1, "components": {...}},
                      "B": {"algebra": "fiber", "degree": 2, ...}}
    path             shipped path fixture name
    bigon            shipped bigon fixture name
    transition       {"g": [exprs, one per base algebra direction],
                      "a": {components}, "perturb": factor (optional)}
    nerve            shipped nerve name or {charts, doubles, triples, quads}
    cocycle          {"g": {"i,j": value}, "h": {"i,j,k": value}, "k": {"i": value}}
    grid, samples, steps, seed, grids, tolerances
"""

import json
import math
import os

from .cech import CoverNerve, GluingCocycle, nerve as nerve_fixture
from .crossed import crossed_module, from_tables
from .errors import ConfigError, GeometryError, GroupDomainError, ParseError, TwoGaugeError
from .forms import FormField
from .geometry import shipped_bigon, shipped_path
from .maps import ExpParamMap
from .transport import DEFAULT_GRID, DEFAULT_STEPS, TAU_FAKE, grids_errors
from .groups import is_integer

DEFAULT_SAMPLES = 40
DEFAULT_TOLERANCES = {"fake": TAU_FAKE, "surface": 1e-4, "transition": 1e-9,
                      "holonomy": 1e-6}
_KNOWN_KEYS = {"description", "crossed_module", "dim", "forms", "path",
               "bigon", "transition", "nerve", "cocycle", "grid", "samples",
               "steps", "seed", "grids", "tolerances"}


def _overlap_key(text):
    return tuple(int(part) for part in str(text).split(","))


def _keyed_values(errors, part, values, parse):
    """The cocycle values of one part keyed by `parse` of each JSON key; two
    keys that parse alike (such as "0,1" and "+0,1") go to errors, named."""
    out, first = {}, {}
    for key, value in values.items():
        parsed = parse(key)
        if parsed in first:
            errors.append(f"cocycle {part} keys {json.dumps(first[parsed])} and "
                          f"{json.dumps(key)} both name {parsed}")
        first.setdefault(parsed, key)
        out[parsed] = value
    return out


class Scenario:
    """A loaded, fully resolved scenario."""

    def __init__(self, doc, name="<inline>"):
        self.name = name
        self.description = doc.get("description", "")
        self.doc = doc
        self.module = None
        self.dim = doc.get("dim", 2)
        self.forms = {}
        self.path = None
        self.bigon = None
        self.gmap = None
        self.a_form = None
        self.perturb = None
        self.nerve = None
        self.cocycle = None
        self.grid = doc.get("grid", DEFAULT_GRID)
        self.samples = doc.get("samples", DEFAULT_SAMPLES)
        self.steps = doc.get("steps", DEFAULT_STEPS)
        self.seed = doc.get("seed", 42)
        self.grids = doc.get("grids", [8, 16, 32, 64])
        self.tolerances = dict(DEFAULT_TOLERANCES)
        if isinstance(doc.get("tolerances"), dict):
            self.tolerances.update(doc["tolerances"])

    def to_dict(self):
        """Normalized document: defaults filled in, key order canonical."""
        out = {"crossed_module": self.doc.get("crossed_module"),
               "description": self.description, "dim": self.dim,
               "grid": self.grid, "samples": self.samples,
               "steps": self.steps, "seed": self.seed, "grids": self.grids,
               "tolerances": self.tolerances}
        for key in ("forms", "path", "bigon", "transition", "nerve", "cocycle"):
            if key in self.doc:
                out[key] = self.doc[key]
        return out

    def __eq__(self, other):
        return isinstance(other, Scenario) and self.to_dict() == other.to_dict()

    def require(self, *attrs):
        """The pieces a subcommand cannot run without."""
        missing = [a for a in attrs if getattr(self, a) is None]
        if missing:
            raise ConfigError([f"scenario {self.name} does not declare {m!r}"
                               for m in missing])

    def form(self, key):
        if key not in self.forms:
            raise ConfigError(f"scenario {self.name} declares no form {key!r}")
        return self.forms[key]


def _is_number(value):
    """Whether a JSON value is a finite number: Python's json reads NaN and
    Infinity, and a bool is not a number."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def setting_errors(**settings):
    """Problems with run settings (grid, samples, steps, seed), one per bad value.

    Scenario keys and command-line overrides are checked by this one rule.
    Zero samples is allowed: the sampled checks then report SKIPPED.
    """
    rules = {"seed": (lambda v: 0 <= v < 2 ** 64, "fit in 64 bits"),
             "samples": (lambda v: v >= 0, "be a non-negative integer")}
    errors = []
    for field, value in settings.items():
        ok, need = rules.get(field, (lambda v: v >= 1, "be a positive integer"))
        if not (is_integer(value) and ok(value)):
            errors.append(f"{field} must {need}, got {value!r}")
    return errors


_KINDS = {dict: "an object", list: "a list",
          (str, dict): "a catalog name or an inline table object"}


def _check_type(errors, what, value, kind):
    """Whether a JSON value is of `kind`; if not, the problem goes to errors."""
    if isinstance(value, kind):
        return True
    errors.append(f"{what} must be {_KINDS[kind]}, got {value!r}")
    return False


def _check_nerve(errors, spec):
    """Whether an inline nerve is well formed: charts and every overlap under
    doubles, triples and quads are lists of chart labels, which are JSON
    integers as in the cocycle keys (`_overlap_key`), so neither true nor 1.0
    stands for the chart 1. If not, each problem goes to errors, named by its
    key and JSON value."""
    if "charts" not in spec:
        errors.append("nerve needs a charts list")
        return False
    found = len(errors)

    def labels(what, value):
        if not (isinstance(value, list) and all(is_integer(c) for c in value)):
            errors.append(f"nerve {what} must be a list of integer chart labels, "
                          f"got {json.dumps(value)}")

    labels("charts", spec["charts"])
    for key in ("doubles", "triples", "quads"):
        overlaps = spec.get(key, [])
        if not isinstance(overlaps, list):
            errors.append(f"nerve {key} must be a list of overlaps, got {json.dumps(overlaps)}")
            continue
        for i, overlap in enumerate(overlaps):
            labels(f"{key}[{i}]", overlap)
    return len(errors) == found


def _check_expressions(errors, what, value, kind=dict):
    """Whether a JSON value is an object (or a list) of expression strings."""
    if not _check_type(errors, what, value, kind):
        return False
    bad = [t for t in (value.values() if kind is dict else value) if not isinstance(t, str)]
    if bad:
        errors.append(f"{what}: expressions must be strings, got {bad[0]!r}")
    return not bad


def _resolve(doc, name):
    scn = Scenario(doc, name)
    errors = []
    for key in doc:
        if key not in _KNOWN_KEYS:
            errors.append(f"unknown key {key!r}")

    if "crossed_module" not in doc:
        errors.append("missing crossed_module")
    elif _check_type(errors, "crossed_module", doc["crossed_module"], (str, dict)):
        spec = doc["crossed_module"]
        try:
            scn.module = from_tables(spec) if isinstance(spec, dict) \
                else crossed_module(spec)
        except (GroupDomainError, KeyError, TypeError, ValueError) as exc:
            errors.append(f"crossed_module: {exc}")

    dim_ok = is_integer(scn.dim) and scn.dim >= 1
    if not dim_ok:
        errors.append(f"dim must be a positive integer, got {scn.dim!r}")
    errors += setting_errors(grid=scn.grid, samples=scn.samples,
                             steps=scn.steps, seed=scn.seed)
    errors += grids_errors(scn.grids)
    _check_type(errors, "tolerances", doc.get("tolerances", {}), dict)
    for tname, tval in scn.tolerances.items():
        if tname not in DEFAULT_TOLERANCES:
            errors.append(f"unknown tolerance {tname!r}")
        elif not (_is_number(tval) and tval > 0):
            errors.append(f"tolerance {tname!r} must be a positive finite number")

    module_ok = scn.module is not None
    if module_ok and scn.module.is_finite and "forms" in doc:
        errors.append("forms need a matrix crossed module, "
                      f"{doc.get('crossed_module')} is finite")

    if "forms" in doc and module_ok and dim_ok and not scn.module.is_finite \
            and _check_type(errors, "forms", doc["forms"], dict):
        algebras = {"base": scn.module.G.algebra, "fiber": scn.module.H.algebra}
        for fname, spec in doc["forms"].items():
            if not _check_type(errors, f"form {fname!r}", spec, dict):
                continue
            place = spec.get("algebra")
            if place not in algebras:
                errors.append(f"form {fname!r}: algebra must be 'base' or "
                              f"'fiber', got {place!r}")
                continue
            expected = {"A": "base", "B": "fiber"}.get(fname)
            if expected and place != expected:
                errors.append(f"form {fname!r} must take values in the "
                              f"{expected} algebra, got {place!r}")
                continue
            degree = spec.get("degree")
            if not (is_integer(degree) and 0 <= degree <= scn.dim):
                errors.append(f"form {fname!r}: degree must be an integer "
                              f"between 0 and dim={scn.dim}, got {degree!r}")
                continue
            components = spec.get("components", {})
            if not _check_expressions(errors, f"form {fname!r} components", components):
                continue
            try:
                scn.forms[fname] = FormField.from_config(
                    algebras[place], degree, scn.dim, components)
            except (ConfigError, ParseError, ValueError) as exc:
                errors.append(f"form {fname!r}: {exc}")

    if "path" in doc:
        try:
            scn.path = shipped_path(doc["path"])
        except (GeometryError, TwoGaugeError) as exc:
            errors.append(f"path: {exc}")
    if "bigon" in doc:
        try:
            scn.bigon = shipped_bigon(doc["bigon"])
        except (GeometryError, TwoGaugeError) as exc:
            errors.append(f"bigon: {exc}")

    if "transition" in doc and module_ok and dim_ok:
        spec = doc["transition"]
        if scn.module.is_finite:
            errors.append("transition data needs a matrix crossed module")
        elif _check_type(errors, "transition", spec, dict):
            if _check_expressions(errors, "transition g", spec.get("g"), list):
                try:
                    scn.gmap = ExpParamMap.from_exprs(scn.module.G, scn.dim, spec["g"])
                except (ParseError, ValueError, TwoGaugeError) as exc:
                    errors.append(f"transition g: {exc}")
            if _check_expressions(errors, "transition a", spec.get("a", {})):
                try:
                    scn.a_form = FormField.from_config(scn.module.H.algebra, 1,
                                                       scn.dim, spec.get("a", {}))
                except (ConfigError, ParseError, ValueError) as exc:
                    errors.append(f"transition a: {exc}")
            scn.perturb = spec.get("perturb")
            if scn.perturb is not None and not _is_number(scn.perturb):
                errors.append("transition perturb must be a finite number")

    if "nerve" in doc:
        spec = doc["nerve"]
        try:
            if not isinstance(spec, dict):
                scn.nerve = nerve_fixture(spec)
            elif _check_nerve(errors, spec):
                scn.nerve = CoverNerve(spec["charts"],
                                       doubles=[tuple(d) for d in spec.get("doubles", [])],
                                       triples=[tuple(t) for t in spec.get("triples", [])],
                                       quads=[tuple(q) for q in spec.get("quads", [])])
        except ConfigError as exc:
            errors.append(f"nerve: {exc}")

    if "cocycle" in doc and module_ok and scn.nerve is not None:
        spec = doc["cocycle"]
        if not scn.module.is_finite:
            errors.append("cocycle values in scenario files need a finite "
                          "crossed module")
        elif _check_type(errors, "cocycle", spec, dict) \
                and all(_check_type(errors, f"cocycle {part}", spec.get(part, {}), dict)
                        for part in ("g", "h", "k")):
            try:
                found = len(errors)
                g = _keyed_values(errors, "g", spec.get("g", {}), _overlap_key)
                h = _keyed_values(errors, "h", spec.get("h", {}), _overlap_key)
                k = _keyed_values(errors, "k", spec.get("k", {}), int)
                if len(errors) == found:
                    scn.cocycle = GluingCocycle(scn.module, scn.nerve, g, h, k)
            except (ConfigError, ValueError) as exc:
                errors.append(f"cocycle: {exc}")
    elif "cocycle" in doc and "nerve" not in doc:
        errors.append("cocycle data given without a nerve")

    if errors:
        raise ConfigError(errors)
    return scn


def scenario_dir():
    return os.path.join(os.path.dirname(__file__), "scenarios")


def find_scenario(path):
    """The given path, or the shipped scenario with that basename."""
    if os.path.exists(path):
        return path
    fallback = os.path.join(scenario_dir(), os.path.basename(path))
    if os.path.basename(path) == path and os.path.exists(fallback):
        return fallback
    raise ConfigError(f"scenario file not found: {path}")


def load_scenario(path):
    resolved = find_scenario(path)
    with open(resolved, "r", encoding="utf-8") as fh:
        text = fh.read()
    if not text.strip():
        doc = {}
    else:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    return _resolve(doc, os.path.basename(resolved))


def serialize_scenario(scn):
    """Canonical JSON text; load(serialize(s)) equals s."""
    return json.dumps(scn.to_dict(), sort_keys=True, indent=2) + "\n"


def scenario_from_dict(doc, name="<inline>"):
    return _resolve(dict(doc), name)


def shipped_scenarios():
    names = [f for f in os.listdir(scenario_dir()) if f.endswith(".scn")]
    return sorted(names)
