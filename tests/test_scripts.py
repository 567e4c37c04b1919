"""Smoke runs of the example scripts in scripts/, at toy sizes.

They read the library's result fields and helpers (res.pushes,
res.seed_volume, ledger_bound, sample_seeds), so a library change can break
them without any other test noticing. solver_digests.py and parse_corpus.py
are not run here: they rewrite tests/golden/.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_locality_scaling_prints_one_line_per_chain_length(tmp_path):
    lines = run_script("locality_scaling.py", "--chain-lengths", "2", "3", tmp_path=tmp_path)
    assert [line.split()[:2] for line in lines] == [["2", "blocks:"], ["3", "blocks:"]]
    assert all("pushed degree=" in line and "of bound" in line for line in lines)


def test_planted_recovery_reports_median_f1(tmp_path):
    lines = run_script("planted_recovery.py", "--block-size", "30", "--edges-per-block", "60",
                       "--trials", "1", "--kappa", "0.01", tmp_path=tmp_path)
    assert lines[0].startswith("trial 0: P=")
    assert lines[-1].startswith("median F1 ")
