"""tools/report_digests.py, the tool that shows whether two checkouts give
the same reports: one line per shipped scenario and subcommand, the same
from run to run, and one line per finite census."""

import os
import subprocess
import sys

from twogauge import cli
from twogauge.cech import NERVE_FIXTURES
from twogauge.crossed import shipped_finite_names
from twogauge.scenario import shipped_scenarios

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
TOOL = os.path.join(ROOT, "tools", "report_digests.py")


def _lines(*options):
    done = subprocess.run([sys.executable, TOOL, "--src", os.path.join(ROOT, "src"), *options],
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout.splitlines()


def test_one_stable_digest_line_per_shipped_run():
    lines = _lines()
    fields = [line.split() for line in lines]
    runs = sorted((command, scenario) for command in cli.COMMANDS
                  for scenario in shipped_scenarios())
    assert len(lines) == len(runs) == 99
    assert sorted((f[0], f[1]) for f in fields) == runs
    assert all(len(f) == 5 and f[2] in {"0", "1", "2"} for f in fields)
    assert _lines() == lines


def test_one_census_line_per_shipped_finite_module_and_nerve():
    lines = _lines("--census")
    pairs = [(module, nerve) for module in shipped_finite_names() for nerve in NERVE_FIXTURES]
    # the tool adds one cyclic gerbe larger than any shipped module
    assert len(lines) == len(pairs) + 1 == 43
    assert [tuple(line.split()[:2]) for line in lines] == pairs + [("GERBE(Z20)", "sphere")]
