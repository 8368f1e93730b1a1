"""Smoke tests of the scripts under scripts/: each runs in a fresh
interpreter, as a user would run it, and must exit 0 with its result
lines."""

import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import CHI_EXAMPLE

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def test_reproduce_worked_example(tmp_path):
    out = run_script("reproduce_worked_example.py", "--out-dir", str(tmp_path))
    chis = dict(re.findall(r"^\s*(sdp|oracle): chi = ([0-9.]+)", out, re.M))
    assert set(chis) == {"sdp", "oracle"}
    for value in chis.values():
        assert abs(float(value) - CHI_EXAMPLE) <= 1e-4
    assert "certified lower bound" in out
    assert re.search(r"^boundary: 720 samples", out, re.M)
    for name in ("boundary.csv", "boundary.svg"):
        assert (tmp_path / name).stat().st_size > 0


def test_scaling_study_small(tmp_path):
    table = tmp_path / "rows.csv"
    out = run_script(
        "scaling_study.py", "--n-max", "3", "--trials", "1", "--csv", str(table)
    )
    assert re.search(
        r"^\s+n\s+d\s+chi\s+iters\s+cap\s+dual_solves\s+closed_by\s+setup_us\s+seconds"
        r"\s+us/iter\s+\|sdp-oracle\|$",
        out,
        re.M,
    )
    rows = re.findall(
        r"^\s+(\d+)\s+(\d+)\s+(\S+)\s+(\d+)\s+(\d+)\s+(\d+)\s+(\w+)"
        r"\s+(\S+)\s+(\S+)\s+(\S+)\s+(\S+)$",
        out,
        re.M,
    )
    assert [(n, d) for n, d, *_ in rows] == [("2", "4"), ("3", "9")]
    for _, _, chi, iterations, cap, solves, kind, setup_us, seconds, us_per_iter, gap in rows:
        assert float(chi) >= 1.0
        assert float(setup_us) > 0.0
        assert 0 < int(iterations) <= int(cap)
        assert int(solves) >= 1
        assert kind in ("feasible", "dual")
        assert float(seconds) >= 0.0 and float(us_per_iter) > 0.0
        assert float(gap) <= 2e-3
    with open(table, newline="") as fh:
        records = list(csv.DictReader(fh))
    assert list(records[0]) == [
        "n", "trial", "dim", "iterations", "cap", "dual_solves", "closed_by",
        "value", "setup_us", "seconds", "us_per_iter", "oracle_gap",
    ]
    assert [int(r["n"]) for r in records] == [2, 3]
    for r, (_, _, chi, iterations, cap, solves, kind, setup_us, *_) in zip(records, rows):
        assert (r["iterations"], r["cap"], r["dual_solves"], r["closed_by"]) == (
            iterations, cap, solves, kind,
        )
        assert float(r["setup_us"]) == pytest.approx(float(setup_us), abs=0.05)
        assert float(r["value"]) == pytest.approx(float(chi), abs=1e-6)
        assert float(r["us_per_iter"]) == pytest.approx(
            1e6 * float(r["seconds"]) / int(r["iterations"])
        )
