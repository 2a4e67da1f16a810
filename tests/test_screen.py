"""Smoke test of tools/screen.py, the in-process parent/change screen."""

import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def screen(parent, change):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "screen.py"), "--parent", str(parent),
         "--change", str(change), "--workload", "copy_mechanisms", "--steps", "2",
         "--evals", "1"],
        capture_output=True, text=True, timeout=300)


def test_screen_passes_a_checkout_against_itself():
    done = screen(ROOT, ROOT)
    assert done.returncode == 0, done.stderr
    assert "change faster in" in done.stdout


def test_screen_stops_at_a_changed_loss(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "sharedworkspace" / "tensor.py", "a") as fh:
        fh.write("\nrelu = tanh\n")
    done = screen(ROOT, tmp_path)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "step 0: loss bytes differ" in done.stderr


def test_screen_stops_at_a_changed_gradient_under_an_unchanged_loss(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "sharedworkspace" / "optim.py", "a") as fh:
        fh.write(textwrap.dedent("""
            _step = Adam.step

            def _step_with_doubled_head_bias_gradient(self, lr=None):
                self.params["head.b"].grad *= 2.0
                return _step(self, lr)

            Adam.step = _step_with_doubled_head_bias_gradient
            """))
    done = screen(ROOT, tmp_path)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "step 0: gradient bytes of 'head.b' differ" in done.stderr
    assert "loss bytes differ" not in done.stderr


def screen_checkpoints(parent, change):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "screen.py"), "--parent", str(parent),
         "--change", str(change), "--workload", "copy_mechanisms", "--steps", "1",
         "--evals", "0", "--checkpoints", "3"],
        capture_output=True, text=True, timeout=300)


def test_screen_times_checkpoint_round_trips():
    done = screen_checkpoints(ROOT, ROOT)
    assert done.returncode == 0, done.stderr
    assert ("3 checkpoint round trips per side, losses, gradients and files identical"
            in done.stdout)
    assert "checkpoint: parent" in done.stdout and "change faster in" in done.stdout


def test_screen_stops_at_a_changed_checkpoint_byte(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "sharedworkspace" / "serialization.py", "a") as fh:
        fh.write("\nMAGIC = b'SWCX'\n")
    done = screen_checkpoints(ROOT, tmp_path)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "checkpoint 0: file bytes differ" in done.stderr
