"""scripts/run_full_verification.py: --field reaches every run."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = (Path(__file__).resolve().parent.parent / "scripts"
          / "run_full_verification.py")


def _sweep(out, *extra):
    got = subprocess.run([sys.executable, str(SCRIPT), "--sources", "std:2",
                          "--commands", "validate", "--json-dir", str(out),
                          *extra], capture_output=True, text=True)
    assert got.returncode == 0, got.stdout + got.stderr
    return json.loads((out / "std-2_validate.json").read_text())


def test_field_flag_is_forwarded_and_defaults_to_the_size_choice(tmp_path):
    chosen = _sweep(tmp_path / "modular", "--field", "modular:23")
    assert chosen["config"]["field"] == "modular:23"
    assert chosen["field"]["prime"] == 23
    assert _sweep(tmp_path / "default")["config"]["field"] == "symbolic"
