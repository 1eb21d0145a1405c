"""tools/report_digests.py, the tool that shows whether two checkouts give
the same reports: one line per shipped scenario and subcommand, the same
from run to run, one line per finite census, and `--against`, which prints
only the lines that differ between two source trees."""

import os
import re
import shutil
import subprocess
import sys

from twogauge import cli
from twogauge.cech import NERVE_FIXTURES
from twogauge.crossed import shipped_finite_names
from twogauge.scenario import shipped_scenarios

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
TOOL = os.path.join(ROOT, "tools", "report_digests.py")


def _run(*options, src=os.path.join(ROOT, "src")):
    return subprocess.run([sys.executable, TOOL, "--src", src, *options],
                          capture_output=True, text=True, timeout=120)


def _lines(*options):
    done = _run(*options)
    assert done.returncode == 0, done.stderr
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
    # the tool adds one cyclic gerbe larger than any shipped module, and one
    # each on an octahedron and on RP^2, which the census runs with no gauge
    assert len(lines) == len(pairs) + 3 == 45
    assert [tuple(line.split()[:2]) for line in lines] == pairs + [
        ("GERBE(Z20)", "sphere"), ("GERBE(Z3)", "octahedron"), ("GERBE(Z2)", "rp2")]


def test_census_repeat_prints_a_wall_per_census_and_the_same_refusals():
    digests = _lines("--census")
    walls = _lines("--census", "--repeat", "1")
    assert len(walls) == len(digests) == 45
    for wall, digest in zip(walls, digests):
        if " refused: " in digest:
            assert wall == digest
        else:
            module, nerve, seconds = wall.split(maxsplit=2)
            assert digest.split()[:2] == [module, nerve]
            # one repeat: the quartiles are the median
            median = re.fullmatch(r"(\d+\.\d{4}s) \(q1 (\S+), q3 (\S+)\)", seconds)
            assert median and median[1] == median[2] == median[3]
    assert sum(" refused: " in line for line in walls) == 11
    # a census runs in this process, so there is no cold census
    assert _run("--census", "--cold", "1").returncode == 2


def test_against_prints_only_the_census_lines_that_differ(tmp_path):
    # the census only: the scenario digests would add about 10 s
    same = _run("--against", os.path.join(ROOT, "src"), "--census")
    assert (same.returncode, same.stdout) == (0, "")
    # a tree without the package would compare whatever twogauge sys.path finds
    assert _run("--against", str(tmp_path), "--census").returncode == 2
    changed = tmp_path / "src"
    shutil.copytree(os.path.join(ROOT, "src"), changed,
                    ignore=shutil.ignore_patterns("__pycache__"))
    cech = changed / "twogauge" / "cech.py"
    cech.write_text(cech.read_text().replace(
        "classification expects strictly", "classification wants strictly"))
    differ = _run("--against", os.path.join(ROOT, "src"), "--census", src=str(changed))
    lines = differ.stdout.splitlines()
    # the 7 shipped finite modules refuse the one nerve with degenerate overlaps
    assert differ.returncode == 1 and len(lines) == 14
    assert all(line.startswith(("census: -", "census: +")) for line in lines)
    assert lines[:2] == [
        "census: -CONJ(S3) pair-with-units refused: classification expects strictly "
        "increasing overlaps",
        "census: +CONJ(S3) pair-with-units refused: classification wants strictly "
        "increasing overlaps"]
