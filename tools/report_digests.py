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
repeats of the summed "[wall]" seconds of that subcommand's runs, and how
many of its runs report a wall (a run that exits 2 before starting prints
none). Those walls start after the imports, so they leave out start-up.

    python3 tools/report_digests.py --cold 3

runs every scenario and subcommand as its own fresh `python -m twogauge.cli`
process against `--src`, and prints one line per subcommand: the median
over 3 repeats of the summed wall time of that subcommand's processes,
imports included, then the same for all runs together.

    python3 tools/report_digests.py --census

prints, instead, one line per finite census: every shipped finite module on
every shipped nerve, and GERBE(Z20) on the sphere,

    module nerve sha256(json census)

or `module nerve refused: <message>` where `classify_finite` refuses the
pair. Diffing this against `--src ../parent/src` shows whether a change
moved any census.

    python3 tools/report_digests.py --census --repeat 5

prints, for the same pairs, `module nerve seconds`: the median wall of 5
in-process `classify_finite` runs, and the refusal lines as above.

    python3 tools/report_digests.py --against ../parent/src

runs those diffs in one command: the digests at the scenarios' own seeds,
at `--seed 0` and at `--seed 301`, and the `--census` lines, each for the
tree `--against` names and for `--src`, every one in a fresh process. It
prints only the lines that differ, as "mode: -line" for the `--against`
tree and "mode: +line" for `--src`, and exits 1 if there are any, 0 if
there are none. With `--census` it compares the census lines only.
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


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


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
    return [f"{command} {statistics.median(totals[command]):.3f}s "
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


# a cyclic gerbe larger than any shipped module, within the census budget
EXTRA_CENSUS = [("GERBE(Z20)", "sphere")]


def census_lines(repeats=None):
    """One digest or refusal line per finite census, shipped pairs first; with
    `repeats`, the median wall of that many runs in place of the digest."""
    from twogauge.cech import NERVE_FIXTURES, classify_finite, nerve
    from twogauge.crossed import crossed_module, shipped_finite_names
    from twogauge.errors import TwoGaugeError

    pairs = [(m, nv) for m in shipped_finite_names() for nv in NERVE_FIXTURES]
    lines = []
    for module, nerve_name in pairs + EXTRA_CENSUS:
        cm, cover = crossed_module(module), nerve(nerve_name)
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
            lines.append(f"{module} {nerve_name} {statistics.median(walls):.4f}s")
    return lines


# the digest sets `--against` compares: (label, options of this tool)
AGAINST_MODES = [("shipped seeds", ()), ("seed 0", ("--seed", "0")),
                 ("seed 301", ("--seed", "301")), ("census", ("--census",))]


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
                      help="print median [wall] per subcommand over N repeats; "
                           "with --census, per census")
    mode.add_argument("--cold", type=int, default=None, metavar="N",
                      help="print median fresh-process seconds per subcommand "
                           "over N repeats")
    parser.add_argument("--census", action="store_true",
                        help="print one line per finite census instead: its digest, "
                             "or with --repeat its median wall")
    parser.add_argument("--against", default=None, metavar="DIR",
                        help="print only the digest lines that differ between the "
                             "source tree DIR and --src; exit 1 if any do")
    args = parser.parse_args(argv)
    for name in ("repeat", "cold"):
        if getattr(args, name) is not None and getattr(args, name) < 1:
            parser.error(f"--{name} must be a positive integer")
    if args.census and args.seed is not None:
        parser.error("--seed does not apply to --census: a census draws no samples")
    if args.census and args.cold is not None:
        parser.error("--cold does not apply to --census: censuses run in this process")
    src = os.path.abspath(args.src)
    # a tree without the package would import whichever twogauge sys.path holds
    for tree in filter(None, (args.src, args.against)):
        if not os.path.isfile(os.path.join(tree, "twogauge", "__init__.py")):
            parser.error(f"no twogauge package under {tree}")
    if args.against is not None:
        if args.seed is not None or args.repeat is not None or args.cold is not None:
            parser.error("--against runs its own seeds and takes neither --seed, "
                         "--repeat nor --cold")
        modes = AGAINST_MODES[-1:] if args.census else AGAINST_MODES
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
