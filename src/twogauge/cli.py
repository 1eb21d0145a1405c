"""Command line: a scenario file in, a verdict report out.

Exit codes: 0 when every check passes, 1 when at least one fails, 2 for
usage or configuration problems and for any input the run cannot answer,
always with one stderr line and never a traceback. Reports carry
"schema": 1 and are emitted as canonical JSON (sorted keys, no whitespace)
so identical inputs produce byte-identical output; wall time goes to
stderr where it cannot break that.
"""

import argparse
import errno
import functools
import json
import os
import sys
import time

import numpy as np

from .cech import check_tetrahedron, check_triangle, check_unit_laws, classify_finite
from .crossed import differential_consistency, validate_crossed_module
from .errors import BudgetExceeded, ConfigError, TwoGaugeError
from .geometry import Reparam
from .report import NO_SAMPLES, ValidationReport, jsonify
from .scenario import load_scenario, setting_errors, shipped_scenarios
from .transport import (LocalConnection, check_transition_laws,
                        convergence_study, kernel_check, path_holonomy,
                        surface_holonomy, transform_connection)
from .twocells import check_interchange, eckmann_hilton_probe

COMMANDS = ["validate", "interchange", "holonomy-path", "holonomy-surface",
            "fake-curvature", "transitions", "cocycle", "classify", "converge"]


def _rng(seed):
    # counter-based and splittable, so every consumer sees a fixed stream
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _chart_points(scn, seed, n, lo=-1.0, hi=1.0):
    rng = _rng(seed)
    return [rng.uniform(lo, hi, size=scn.dim) for _ in range(n)]


def _connection(scn):
    scn.require("module")
    if scn.module.is_finite:
        raise ConfigError("this subcommand needs a matrix crossed module")
    return LocalConnection(scn.module, scn.form("A"), scn.form("B"))


def cmd_validate(scn, seed, grid, samples):
    cm = scn.module
    rep = validate_crossed_module(cm, samples=samples, seed=seed)
    if not cm.is_finite:
        rep.extend(differential_consistency(cm, samples=min(samples, 20),
                                            seed=seed))
    return rep, {"module": cm.name}


def cmd_interchange(scn, seed, grid, samples):
    cm = scn.module
    rep = check_interchange(cm, samples=samples, seed=seed)
    trivial_base = (cm.G.order == 1 if cm.is_finite else cm.G.trivial)
    if trivial_base:
        rep.extend(eckmann_hilton_probe(cm, samples=samples, seed=seed))
    return rep, {"module": cm.name}


def cmd_holonomy_path(scn, seed, grid, samples):
    scn.require("path")
    cm = scn.module
    A = scn.form("A")
    tol = scn.tolerances["holonomy"]
    W = path_holonomy(cm, A, scn.path, steps=scn.steps)
    rep = ValidationReport(f"path holonomy: {scn.name}")
    warp = Reparam.from_expr("x1 ^ 2 * (3 - 2 * x1)")
    W_warp = path_holonomy(cm, A, scn.path.reparametrize(warp), steps=scn.steps)
    r1 = float(np.linalg.norm(W - W_warp))
    rep.add("reparametrization-invariance", r1 <= tol, residual=r1, tolerance=tol)
    W_back = path_holonomy(cm, A, scn.path.reverse(), steps=scn.steps)
    group = cm.G if hasattr(cm, "G") else cm
    r2 = float(np.linalg.norm(group.mul(W_back, W) - group.identity))
    rep.add("reverse-is-inverse", r2 <= tol, residual=r2, tolerance=tol)
    return rep, {"holonomy": W, "steps": scn.steps}


def cmd_holonomy_surface(scn, seed, grid, samples):
    scn.require("bigon")
    conn = _connection(scn)
    res = surface_holonomy(conn, scn.bigon, grid=grid,
                           fake_tol=scn.tolerances["fake"])
    rep = ValidationReport(f"surface holonomy: {scn.name}")
    rep.add("fake-flatness", res.flat, residual=res.fake_residual,
            tolerance=scn.tolerances["fake"])
    defect = res.target_defect
    tol = scn.tolerances["surface"]
    rep.add("target-law", defect <= tol, residual=defect, tolerance=tol)
    return rep, {"cell_g": res.cell.g, "cell_h": res.cell.h,
                 "fake_residual": res.fake_residual, "grid": res.grid}


def cmd_fake_curvature(scn, seed, grid, samples):
    conn = _connection(scn)
    fake = conn.fake_curvature()
    points = _chart_points(scn, seed, n=samples)
    rep = ValidationReport(f"fake curvature: {scn.name}")
    if not points:
        rep.skip("fake-curvature-vanishes", NO_SAMPLES)
        rep.skip("three-curvature-in-kernel", NO_SAMPLES)
        return rep, {"max_fake": None, "points": 0}
    worst = fake.max_abs_on_grid(points)
    tol = scn.tolerances["fake"]
    rep.add("fake-curvature-vanishes", worst <= tol, residual=worst,
            tolerance=tol)
    if worst <= tol and scn.dim >= 3:
        rep.extend(kernel_check(conn, points))
    elif scn.dim < 3:
        rep.skip("three-curvature-in-kernel",
                 "3-forms vanish identically below dimension 3")
    else:
        rep.skip("three-curvature-in-kernel", "connection is not fake flat")
    return rep, {"max_fake": worst, "points": len(points)}


def cmd_transitions(scn, seed, grid, samples):
    scn.require("gmap", "a_form")
    right = _connection(scn)
    cm = scn.module
    # the left chart is the declared one rewritten through (g, a)
    left = transform_connection(cm, right, scn.gmap, scn.a_form)
    a_checked = scn.a_form if scn.perturb is None \
        else scn.a_form.scaled(1.0 + scn.perturb)
    points = _chart_points(scn, seed, n=samples, lo=0.1, hi=0.9)
    rep = check_transition_laws(cm, left, right, scn.gmap, a_checked,
                                points, tol=scn.tolerances["transition"])
    return rep, {"points": len(points),
                 "perturbed": scn.perturb is not None}


def cmd_cocycle(scn, seed, grid, samples):
    scn.require("cocycle")
    rep = check_triangle(scn.cocycle)
    rep.extend(check_tetrahedron(scn.cocycle))
    rep.extend(check_unit_laws(scn.cocycle))
    nv = scn.nerve
    return rep, {"charts": len(nv.charts), "doubles": len(nv.doubles),
                 "triples": len(nv.triples), "quads": len(nv.quads)}


def cmd_classify(scn, seed, grid, samples):
    scn.require("nerve")
    census = classify_finite(scn.module, scn.nerve)
    rep = ValidationReport(f"classification: {scn.name}")
    rep.add("classification-complete", True,
            detail=f"{census['cocycles']} cocycles in {census['orbits']} classes")
    return rep, census


def cmd_converge(scn, seed, grid, samples):
    scn.require("path")
    study = convergence_study(scn.module, scn.form("A"), scn.path,
                              grids=tuple(scn.grids))
    rep = ValidationReport(f"convergence: {scn.name}")
    order = study["order"]
    rep.add("fourth-order", abs(order - 4.0) <= 0.5, residual=abs(order - 4.0),
            tolerance=0.5, detail=f"fitted order {order:.3f}")
    return rep, study


_HANDLERS = {"validate": cmd_validate, "interchange": cmd_interchange,
             "holonomy-path": cmd_holonomy_path,
             "holonomy-surface": cmd_holonomy_surface,
             "fake-curvature": cmd_fake_curvature,
             "transitions": cmd_transitions, "cocycle": cmd_cocycle,
             "classify": cmd_classify, "converge": cmd_converge}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error is one stderr line and exit 2, as every refusal is."""
        self.exit(_refuse(f"usage error: {message}; see {self.prog} --help"))


def build_parser():
    parser = _Parser(
        prog="twogauge",
        description="Checkers and transport integrators for 2-group gauge data.",
        epilog="Shipped scenarios: " + ", ".join(shipped_scenarios()))
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--scenario", required=True, metavar="FILE",
                       help="scenario file (path or shipped name)")
        p.add_argument("--seed", type=int, default=None, metavar="U64",
                       help="override the scenario seed")
        p.add_argument("--grid", type=int, default=None, metavar="N",
                       help="override the scenario grid")
        p.add_argument("--samples", type=int, default=None, metavar="N",
                       help="override the scenario sample count")
        p.add_argument("--out", default=None, metavar="FILE",
                       help="write the report here instead of stdout")
        p.add_argument("--format", choices=["json", "text"], default="json")
        if name == "converge":
            p.add_argument("--csv", default=None, metavar="FILE",
                           help="write the grid/error table as CSV")
    return parser


def _render_text(doc):
    lines = [f"# {doc['command']} on {doc['scenario']} (seed {doc['seed']})"]
    rep = doc["report"]
    for check in rep["checks"]:
        line = f"{check['verdict']:7s} {check['name']}"
        if check.get("residual") is not None:
            line += f"  residual {check['residual']:.3e}"
            if check.get("tolerance") is not None:
                line += f" (tolerance {check['tolerance']:.1e})"
        if check.get("detail"):
            line += f"  [{check['detail']}]"
        lines.append(line)
    lines.append(f"verdict: {rep['verdict']}")
    return "\n".join(lines) + "\n"


def _emit(doc, args):
    if args.format == "json":
        text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        text = _render_text(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _missing_output_dir(args):
    """The error opening an output path would raise, as an OSError, when the
    directory it names does not exist; None when every such directory does."""
    for path in (args.out, getattr(args, "csv", None)):
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            return FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    return None


def _refuse(message):
    """Print one stderr line and return exit code 2."""
    print("twogauge: " + " ".join(message.splitlines()), file=sys.stderr)
    return 2


@functools.cache
def _parser():
    """The one parser of this process: parse_args keeps no state between runs."""
    return build_parser()


def run(argv=None):
    started = time.perf_counter()
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        scn = load_scenario(args.scenario)
        overrides = {"seed": args.seed, "grid": args.grid,
                     "samples": args.samples}
        errors = setting_errors(**{k: v for k, v in overrides.items() if v is not None})
        if errors:
            raise ConfigError(errors)
        seed = args.seed if args.seed is not None else scn.seed
        grid = args.grid if args.grid is not None else scn.grid
        samples = args.samples if args.samples is not None else scn.samples
        missing = _missing_output_dir(args)
        if missing:
            return _refuse(f"cannot write output: {missing}")
        # a NaN or an overflow that reaches a product warns on stderr at each
        # site; the membership checks and the reports' residuals answer for it
        with np.errstate(invalid="ignore", over="ignore"):
            report, payload = _HANDLERS[args.command](scn, seed, grid, samples)
    except ConfigError as exc:
        return _refuse(f"configuration error: {exc}")
    except BudgetExceeded as exc:
        return _refuse(f"refusing to run: {exc}")
    except TwoGaugeError as exc:
        return _refuse(str(exc))
    except Exception as exc:  # the boundary: never a traceback
        return _refuse(f"internal error: {type(exc).__name__}: {exc}")
    doc = {"schema": 1, "command": args.command, "scenario": scn.name,
           "description": scn.description, "seed": seed,
           "report": jsonify(report.to_dict()), "payload": jsonify(payload)}
    try:
        _emit(doc, args)
        if args.command == "converge" and args.csv:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write("grid,error\n")
                for n, err in zip(payload["grids"], payload["errors"]):
                    fh.write(f"{n},{err!r}\n")
    except OSError as exc:
        return _refuse(f"cannot write output: {exc}")
    print(f"[wall] {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return 0 if report.passed else 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
