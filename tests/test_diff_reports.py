"""scripts/diff_reports.py: report directories compared without time_ms."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "diff_reports.py"


def _report(status, time_ms, witness=None):
    return {"command": "rank", "status": "pass",
            "checks": [{"name": "rank", "status": status,
                        "witness": witness, "time_ms": time_ms}],
            "data": {"rank": 2}}


def _write(d, name, report):
    d.mkdir(exist_ok=True)
    (d / name).write_text(json.dumps(report, indent=2) + "\n")


def _diff(a, b):
    got = subprocess.run([sys.executable, str(SCRIPT), str(a), str(b)],
                         capture_output=True, text=True)
    return got.returncode, got.stdout.splitlines()


def test_reports_differing_only_in_time_agree(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    _write(a, "std-2_rank.json", _report("proved", 1.5))
    _write(b, "std-2_rank.json", _report("proved", 97.25))
    _write(a, "std-2_validate.json", _report("proved", 0.0))
    _write(b, "std-2_validate.json", _report("proved", 3.0))
    code, out = _diff(a, b)
    assert code == 0
    assert out == ["2 report(s) agree"]


def test_differing_and_one_sided_files_are_named(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    _write(a, "same.json", _report("proved", 1.0))
    _write(b, "same.json", _report("proved", 2.0))
    _write(a, "witness.json", _report("failed", 1.0, "k=2 i=1"))
    _write(b, "witness.json", _report("failed", 1.0, "k=3 i=1"))
    _write(a, "left.json", _report("proved", 1.0))
    _write(b, "right.json", _report("proved", 1.0))
    (b / "notes.txt").write_text("not a report\n")
    code, out = _diff(a, b)
    assert code == 1
    assert out == ["only in %s: left.json" % a,
                   "only in %s: right.json" % b,
                   "differs: witness.json",
                   "3 differing file(s)"]
