"""``tools/bracket_audit.py``: its classes on hand-made records, and one
small run of a checkout against itself."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bracket_audit",
                                               ROOT / "tools" / "bracket_audit.py")
bracket_audit = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bracket_audit)


def record(lower, upper, outcome="ok"):
    return {"kind": "hardy", "outcome": outcome, "lower": lower, "upper": upper,
            "iterations": 3, "hard": []}


def test_classify():
    base = record(1.0, 2.0)
    assert bracket_audit.classify(base, record(1.0, 2.0)) == ("identical", 0.0)
    assert bracket_audit.classify(base, record(1.25, 1.5)) == ("narrower", 0.0)
    assert bracket_audit.classify(base, record(0.75, 2.0)) == ("wider", 0.25)
    assert bracket_audit.classify(base, record(1.0, 2.5)) == ("wider", 0.5)
    assert bracket_audit.classify(base, record(1.0, 2.0, "stall")) == ("outcome", 0.0)


def test_checkout_against_itself():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bracket_audit.py"), str(ROOT), str(ROOT),
         "--workload", "floor_mix", "--seed", "1", "--count", "16"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    total = next(line for line in proc.stdout.splitlines() if line.startswith("all "))
    assert total.split()[1:] == ["16", "0", "0", "0"]
    assert "first wider: none" in proc.stdout.splitlines()
    assert "first outcome: none" in proc.stdout.splitlines()
