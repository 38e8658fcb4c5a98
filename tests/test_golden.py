"""Every command on the fast catalogue reproduces its checked-in report.

tests/golden holds one JSON report per (source, command) pair, written by

  python3 scripts/run_full_verification.py --sources std:2 std:3 perm:2 perm:3 --json-dir tests/golden

plus std:4's validation, rank and structure at its default field, the
one path here that multiplies operators over GF(p),

  python3 scripts/run_full_verification.py --sources std:4 \
      --commands validate rank structure --json-dir tests/golden

plus the membership commands on the gauge-conjugated std:3 file, the
one source here whose ideal needs completion rules beyond degree 2,

  python3 scripts/run_full_verification.py --sources tests/gauge-s7.json \
      --commands newton cayley-hamilton charpoly --json-dir tests/golden

and the same file's rank and structure over Q(q), whose structure
report holds the only non-trivial canonical denominators here,

  hecke-lab rank --input tests/gauge-s7.json --field symbolic --json \
      --output tests/golden/gauge-s7_rank-symbolic.json

and the same for structure (each run from the repository root, since
the report echoes the path), and compared here without their time_ms
fields.  A change meant to alter a report regenerates these files with
that command.
"""

import json
import sys
from pathlib import Path

import pytest

from heckelab.cli import COMMANDS, RunConfig, run

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
from diff_reports import without_timings  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"
SOURCES = ("std:2", "std:3", "perm:2", "perm:3")
GAUGE = "tests/gauge-s7.json"


def check_builtin(source, command):
    path = GOLDEN / ("%s_%s.json" % (source.replace(":", "-"), command))
    want = json.loads(path.read_text())
    got = json.loads(run(RunConfig(command, builtin=source)).to_json())
    assert without_timings(got) == without_timings(want)


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("command", COMMANDS)
def test_report_matches_golden(source, command):
    check_builtin(source, command)


@pytest.mark.parametrize("command", ["validate", "rank", "structure"])
def test_modular_report_matches_golden(command):
    check_builtin("std:4", command)


@pytest.mark.parametrize("name", ["newton", "cayley-hamilton", "charpoly",
                                  "rank-symbolic", "structure-symbolic"])
def test_gauge_report_matches_golden(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    command, symbolic, _ = name.partition("-symbolic")
    path = GOLDEN / ("gauge-s7_%s.json" % name)
    want = json.loads(path.read_text())
    cfg = RunConfig(command, input_path=GAUGE,
                    field="symbolic" if symbolic else None)
    got = json.loads(run(cfg).to_json())
    assert without_timings(got) == without_timings(want)
