"""Digest every shipped report: one line per scenario and subcommand.

    python3 tools/report_digests.py [--src DIR] > digests.txt

Runs `twogauge.cli.run` in this process on every shipped scenario with
every subcommand, at the scenario's own settings, and prints one sorted
line per run:

    command scenario exit sha256(stdout) sha256(stderr)

The stderr digest leaves out the "[wall]" timing line, so two checkouts
that produce the same reports print the same lines. To see which reports
a change touched, run the tool against both checkouts and diff:

    python3 tools/report_digests.py --src ../parent/src > before.txt
    python3 tools/report_digests.py > after.txt
    diff before.txt after.txt

`--src` picks the source tree to import twogauge from; the default is the
`src/` directory next to this script. `--seed N` runs every scenario at
seed N instead of its own seed (it is passed to each run as `--seed N`), so
a change to how the sampled checks draw can be compared at more than the
shipped seeds:

    python3 tools/report_digests.py --src ../parent/src --seed 301 > before.txt
    python3 tools/report_digests.py --seed 301 > after.txt

    python3 tools/report_digests.py --repeat 5

prints, instead of digests, one line per subcommand: the median over 5
repeats of the summed "[wall]" seconds of that subcommand's runs, with the
first and third quartiles of those repeats, and how many of its runs
report a wall (a run that exits 2 before starting prints none). Those walls start after the imports, so they leave out start-up.
Every mode runs with one BLAS and OpenMP thread (OMP_NUM_THREADS,
OPENBLAS_NUM_THREADS and MKL_NUM_THREADS are set to 1, also for the
processes it starts), as perfbench does.

    python3 tools/report_digests.py --cold 3

runs every scenario and subcommand as its own fresh `python -m twogauge.cli`
process against `--src`, and prints one line per subcommand: the median
over 3 repeats of the summed wall time of that subcommand's processes,
imports included, then the same for all runs together.

    python3 tools/report_digests.py --census

prints, instead, one line per finite census: every shipped finite module on
every shipped nerve, GERBE(Z20) on the sphere, GERBE(Z3) on an octahedron
and GERBE(Z2) on a 6-chart RP^2, both built here. The census is one routine
run in a gauge: the cone gauge on every shipped nerve it admits, and no
gauge, which lists every cocycle, on the octahedron and RP^2, which are not
coned,

    module nerve sha256(json census)

or `module nerve refused: <message>` where `classify_finite` refuses the
pair. Diffing this against `--src ../parent/src` shows whether a change
moved any census.

    python3 tools/report_digests.py --census --repeat 5

prints, for the same pairs, `module nerve seconds (q1 seconds, q3 seconds)`:
the median wall of 5 in-process `classify_finite` runs with its first and
third quartiles, and the refusal lines as above.

    python3 tools/report_digests.py --against ../parent/src

runs those diffs in one command: the digests at the scenarios' own seeds,
at `--seed 0` and at `--seed 301`, and the `--census` lines, each for the
tree `--against` names and for `--src`, every one in a fresh process. It
prints only the lines that differ, as "mode: -line" for the `--against`
tree and "mode: +line" for `--src`, and exits 1 if there are any, 0 if
there are none. With `--census` it compares the census lines only.

    python3 tools/report_digests.py --interchange [--repeat 5]

prints one line per exhaustive interchange check: every shipped finite
module, PEIFFER_BROKEN(S3), a swap-Klein module that breaks equivariance,
AUT(Z30) and GERBE(Z90),

    module sha256(json report)

or `module raised: <message> (source s, target t)` where the check raises a
CompositionError; with `--repeat`, the median wall and quartiles in place of
the digest. `--against` diffs these lines too, before the census, and with
`--interchange` it compares them only.
"""

import argparse
import contextlib
import difflib
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import time

# one BLAS and OpenMP thread, set before numpy loads here and inherited by
# every process this tool starts: the matrices are 1x1 to 3x3, so a thread
# pool only adds stalls to the walls when another process keeps the cores busy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _spread(walls, places):
    """The median of `walls` and its first and third quartiles, in seconds."""
    q1, median, q3 = (statistics.quantiles(walls, n=4, method="inclusive")
                      if len(walls) > 1 else walls * 3)
    return f"{median:.{places}f}s (q1 {q1:.{places}f}s, q3 {q3:.{places}f}s)"


def shipped_runs(cli, scenarios, options=()):
    """(command, scenario, exit code, stdout, stderr) of every shipped run;
    `options` are appended to each run's arguments."""
    for command in cli.COMMANDS:
        for scenario in scenarios:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run([command, "--scenario", scenario, *options])
            yield command, scenario, code, out.getvalue(), err.getvalue()


def digest_lines(cli, scenarios, options=()):
    lines = []
    for command, scenario, code, out, err in shipped_runs(cli, scenarios, options):
        kept = "".join(line for line in err.splitlines(True)
                       if not line.startswith("[wall]"))
        lines.append(f"{command} {scenario} {code} {_sha(out)} {_sha(kept)}")
    return sorted(lines)


def wall_lines(cli, scenarios, repeats, options=()):
    """Median over repeats of each subcommand's summed [wall] seconds."""
    totals = {command: [] for command in cli.COMMANDS}
    for _ in range(repeats):
        sums = dict.fromkeys(cli.COMMANDS, 0.0)
        timed = dict.fromkeys(cli.COMMANDS, 0)
        for command, _scenario, _code, _out, err in shipped_runs(cli, scenarios, options):
            for line in err.splitlines():
                if line.startswith("[wall] "):
                    sums[command] += float(line.split()[1].rstrip("s"))
                    timed[command] += 1
        for command, total in sums.items():
            totals[command].append(total)
    return [f"{command} {_spread(totals[command], 3)} "
            f"({timed[command]} of {len(scenarios)} runs timed)"
            for command in cli.COMMANDS]


def cold_lines(src, commands, scenarios, repeats, options=()):
    """Median over repeats of each subcommand's summed fresh-process seconds."""
    env = {**os.environ, "PYTHONPATH": src}
    totals = {command: [] for command in commands}
    for _ in range(repeats):
        for command in commands:
            total = 0.0
            for scenario in scenarios:
                started = time.perf_counter()
                subprocess.run([sys.executable, "-m", "twogauge.cli", command,
                                "--scenario", scenario, *options], env=env, timeout=600,
                               stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
                total += time.perf_counter() - started
            totals[command].append(total)
    lines = [f"{command} {statistics.median(totals[command]):.3f}s "
             f"({len(scenarios)} processes)" for command in commands]
    overall = [sum(run) for run in zip(*totals.values())]
    lines.append(f"all {statistics.median(overall):.3f}s "
                 f"({len(commands) * len(scenarios)} processes)")
    return lines


# nerves that are not coned, as CoverNerve arguments: the octahedron, S^2 with
# chart 0 opposite chart 5, and the 6-chart RP^2, in which every pair of
# charts meets
BUILT_NERVES = {
    "octahedron": {
        "charts": range(6),
        "doubles": [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (1, 5), (2, 3),
                    (2, 5), (3, 4), (3, 5), (4, 5)],
        "triples": [(0, 1, 2), (0, 1, 4), (0, 2, 3), (0, 3, 4), (1, 2, 5), (1, 4, 5),
                    (2, 3, 5), (3, 4, 5)]},
    "rp2": {
        "charts": range(6),
        "doubles": [(i, j) for i in range(6) for j in range(i + 1, 6)],
        "triples": [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5), (1, 2, 4),
                    (2, 3, 5), (1, 3, 4), (1, 3, 5), (2, 4, 5)]},
}
# a cyclic gerbe larger than any shipped module, within the census budget, and
# two on nerves that are not coned, so that the census with no gauge is diffed
# too: RP^2 is also where a tree of doubles leaves some doubles unreached
EXTRA_CENSUS = [("GERBE(Z20)", "sphere"), ("GERBE(Z3)", "octahedron"), ("GERBE(Z2)", "rp2")]


def census_lines(repeats=None):
    """One digest or refusal line per finite census, shipped pairs first; with
    `repeats`, the median wall of that many runs and its quartiles in place
    of the digest."""
    from twogauge.cech import NERVE_FIXTURES, CoverNerve, classify_finite, nerve
    from twogauge.crossed import crossed_module, shipped_finite_names
    from twogauge.errors import TwoGaugeError

    pairs = [(m, nv) for m in shipped_finite_names() for nv in NERVE_FIXTURES]
    lines = []
    for module, nerve_name in pairs + EXTRA_CENSUS:
        cm = crossed_module(module)
        cover = (CoverNerve(**BUILT_NERVES[nerve_name]) if nerve_name in BUILT_NERVES
                 else nerve(nerve_name))
        walls = []
        try:
            for _ in range(repeats or 1):
                started = time.perf_counter()
                census = classify_finite(cm, cover)
                walls.append(time.perf_counter() - started)
        except TwoGaugeError as exc:
            lines.append(f"{module} {nerve_name} refused: {exc}")
            continue
        if repeats is None:
            lines.append(f"{module} {nerve_name} "
                         f"{_sha(json.dumps(census, sort_keys=True))}")
        else:
            lines.append(f"{module} {nerve_name} {_spread(walls, 4)}")
    return lines


# the modules `--interchange` checks beyond the shipped finite ones, as
# `from_tables` arguments or catalog names: Z/2 swapping the factors of the
# Klein group with t the first projection, which breaks equivariance, so that
# the exhaustive check raises; and the largest cyclic pairs within its budget
SWAP_KLEIN = {"name": "swap-klein", "G": {"table": [[0, 1], [1, 0]]},
              "H": {"table": [[a ^ b for b in range(4)] for a in range(4)]},
              "t": [0, 0, 1, 1], "alpha": [[0, 1, 2, 3], [0, 2, 1, 3]]}
EXTRA_INTERCHANGE = ["PEIFFER_BROKEN(S3)", SWAP_KLEIN, "AUT(Z30)", "GERBE(Z90)"]


def interchange_lines(repeats=None):
    """One line per exhaustive interchange check, shipped finite modules
    first: the digest of its report, or the CompositionError it raises; with
    `repeats`, the median wall of that many runs and its quartiles in place
    of the digest."""
    from twogauge.crossed import crossed_module, from_tables, shipped_finite_names
    from twogauge.errors import CompositionError
    from twogauge.twocells import check_interchange

    lines = []
    for spec in shipped_finite_names() + EXTRA_INTERCHANGE:
        cm = from_tables(spec) if isinstance(spec, dict) else crossed_module(spec)
        walls = []
        try:
            for _ in range(repeats or 1):
                started = time.perf_counter()
                report = check_interchange(cm, mode="exhaustive")
                walls.append(time.perf_counter() - started)
        except CompositionError as exc:
            lines.append(f"{cm.name} raised: {exc} (source {exc.source}, target {exc.target})")
            continue
        if repeats is None:
            lines.append(f"{cm.name} {_sha(json.dumps(report.to_dict(), sort_keys=True))}")
        else:
            lines.append(f"{cm.name} {_spread(walls, 5)}")
    return lines


# the digest sets `--against` compares: (label, options of this tool)
AGAINST_MODES = [("shipped seeds", ()), ("seed 0", ("--seed", "0")),
                 ("seed 301", ("--seed", "301")), ("interchange", ("--interchange",)),
                 ("census", ("--census",))]


def _tool_lines(src, options):
    """This tool's output lines for the source tree `src`, from a fresh process."""
    done = subprocess.run([sys.executable, os.path.abspath(__file__), "--src", src, *options],
                          capture_output=True, text=True, timeout=600, check=True)
    return done.stdout.splitlines()


def against_lines(old_src, new_src, modes):
    """The lines that differ between the two trees' outputs, mode by mode."""
    lines = []
    for label, options in modes:
        diff = difflib.unified_diff(_tool_lines(old_src, options),
                                    _tool_lines(new_src, options), lineterm="", n=0)
        lines += [f"{label}: {line}" for line in diff
                  if line[:1] in "-+" and line[:4] not in ("--- ", "+++ ")]
    return lines


def main(argv=None):
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(here, os.pardir, "src"),
                        help="source tree holding the twogauge package")
    parser.add_argument("--seed", type=int, default=None, metavar="N",
                        help="run every scenario at seed N instead of its own")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--repeat", type=int, default=None, metavar="N",
                      help="print median [wall] and quartiles per subcommand over "
                           "N repeats; with --census, per census")
    mode.add_argument("--cold", type=int, default=None, metavar="N",
                      help="print median fresh-process seconds per subcommand "
                           "over N repeats")
    finite = parser.add_mutually_exclusive_group()
    finite.add_argument("--census", action="store_true",
                        help="print one line per finite census instead: its digest, "
                             "or with --repeat its median wall")
    finite.add_argument("--interchange", action="store_true",
                        help="print one line per exhaustive interchange check instead: "
                             "its digest, or with --repeat its median wall")
    parser.add_argument("--against", default=None, metavar="DIR",
                        help="print only the digest lines that differ between the "
                             "source tree DIR and --src; exit 1 if any do")
    args = parser.parse_args(argv)
    for name in ("repeat", "cold"):
        if getattr(args, name) is not None and getattr(args, name) < 1:
            parser.error(f"--{name} must be a positive integer")
    for name, runs in (("census", "censuses"), ("interchange", "interchange checks")):
        if getattr(args, name) and args.seed is not None:
            parser.error(f"--seed does not apply to --{name}: it draws no samples")
        if getattr(args, name) and args.cold is not None:
            parser.error(f"--cold does not apply to --{name}: {runs} run in this process")
    src = os.path.abspath(args.src)
    # a tree without the package would import whichever twogauge sys.path holds
    for tree in filter(None, (args.src, args.against)):
        if not os.path.isfile(os.path.join(tree, "twogauge", "__init__.py")):
            parser.error(f"no twogauge package under {tree}")
    if args.against is not None:
        if args.seed is not None or args.repeat is not None or args.cold is not None:
            parser.error("--against runs its own seeds and takes neither --seed, "
                         "--repeat nor --cold")
        only = "--census" if args.census else "--interchange" if args.interchange else None
        modes = [m for m in AGAINST_MODES if only in m[1]] if only else AGAINST_MODES
        lines = against_lines(os.path.abspath(args.against), src, modes)
        for line in lines:
            print(line)
        return 1 if lines else 0
    options = () if args.seed is None else ("--seed", str(args.seed))
    sys.path.insert(0, src)
    from twogauge import cli
    from twogauge.scenario import shipped_scenarios

    scenarios = shipped_scenarios()
    if args.census:
        lines = census_lines(args.repeat)
    elif args.interchange:
        lines = interchange_lines(args.repeat)
    elif args.cold is not None:
        lines = cold_lines(src, cli.COMMANDS, scenarios, args.cold, options)
    elif args.repeat is not None:
        lines = wall_lines(cli, scenarios, args.repeat, options)
    else:
        lines = digest_lines(cli, scenarios, options)
    for line in lines:
        print(line)


if __name__ == "__main__":
    sys.exit(main())
