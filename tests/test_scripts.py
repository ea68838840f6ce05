"""The example scripts run end to end and print their verdict lines."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_return_time_atlas():
    lines = _run("return_time_atlas.py")
    preset = [ln for ln in lines if ln.startswith("  M=") and "horizon=" in ln]
    assert [ln.split(":")[0].strip() for ln in preset] == [f"M={m}" for m in range(4, 15)]
    assert all(ln.endswith("simultaneous=EMPTY") for ln in preset)
    assert all(("supports" in ln) == (int(ln.split(":")[0].strip()[2:]) <= 8)
               for ln in preset)
    assert any("plain first=" in ln and "slip variant EMPTY" in ln for ln in lines)


def test_regime_report():
    lines = _run("regime_report.py")
    verdicts = [ln for ln in lines if ln.startswith("  T^")]
    assert len(verdicts) == 21
    assert sum("(certificate)" in ln for ln in verdicts) == 18
    assert "  T^1 x T^2: ergodic (certificate)" in lines
    assert "  T^1 x T^2: conservative-not-ergodic (certificate) [threshold=8]" in lines
