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
`src/` directory next to this script.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_lines(cli, scenarios):
    lines = []
    for command in cli.COMMANDS:
        for scenario in scenarios:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run([command, "--scenario", scenario])
            kept = "".join(line for line in err.getvalue().splitlines(True)
                           if not line.startswith("[wall]"))
            lines.append(f"{command} {scenario} {code} "
                         f"{_sha(out.getvalue())} {_sha(kept)}")
    return sorted(lines)


def main(argv=None):
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(here, os.pardir, "src"),
                        help="source tree holding the twogauge package")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from twogauge import cli
    from twogauge.scenario import shipped_scenarios

    for line in digest_lines(cli, shipped_scenarios()):
        print(line)


if __name__ == "__main__":
    main()
