"""Checks on the benchmark itself: seeded generation, the reference, the
tail-percentile rule, and the refusal to run without the program.

    python3 -m pytest -q perfbench
"""

import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))


def _generate(tmp_path, name, seed=7, tag="a"):
    work = tmp_path / f"{name}-{tag}"
    return work, workloads.generate(name, seed, work)


def _reread(work, op, shift=0):
    """The op's matrix and center read back through the program's own
    parser, so the files are also checked against the CLI grammar; the
    reference value at center + shift."""
    from crawford.cli import load_matrix, parse_gaussian

    c = load_matrix(work / op["file"]).to_complex()
    return workloads.chi_reference(c, complex(parse_gaussian(op["center"])) + shift)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_files(tmp_path, name):
    work_a, man_a = _generate(tmp_path, name, tag="a")
    work_b, man_b = _generate(tmp_path, name, tag="b")
    assert man_a == man_b
    files = sorted(p.name for p in work_a.iterdir())
    assert files == sorted(p.name for p in work_b.iterdir())
    for f in files:
        assert (work_a / f).read_bytes() == (work_b / f).read_bytes()
    _, man_c = _generate(tmp_path, name, seed=8, tag="c")
    assert man_c != man_a


def _translated_norms(work, op):
    """(||C - cI||_F, ||A||_F + ||B||_F) of the op's translated matrix."""
    from crawford.cli import load_matrix, parse_gaussian

    c = load_matrix(work / op["file"]).to_complex()
    t = c - complex(parse_gaussian(op["center"])) * np.eye(op["n"])
    a, b = (t + t.conj().T) / 2, (t - t.conj().T) / 2j
    return float(np.linalg.norm(t)), float(np.linalg.norm(a) + np.linalg.norm(b))


def test_far_sdp_instances_are_far_and_banded(tmp_path):
    work, man = _generate(tmp_path, "far_sdp")
    for op in man["ops"]:
        assert op["ref"] > 10 * op["eps"]
        assert _reread(work, op) == pytest.approx(op["ref"], abs=1e-9)
        fro, _ = _translated_norms(work, op)
        median = workloads.FAR_FRO_MEDIAN[op["n"]]
        assert abs(fro / median - 1) <= workloads.COST_BAND


def test_verify_cli_centers_are_inside_and_banded(tmp_path):
    work, man = _generate(tmp_path, "verify_cli")
    for op in man["ops"]:
        assert max(0.0, _reread(work, op)) == 0.0
        assert _reread(work, op, shift=1) <= -workloads.INSIDE_MARGIN
        _, lip = _translated_norms(work, op)
        median = workloads.VERIFY_L_MEDIAN[op["n"]]
        assert abs(lip / median - 1) <= workloads.COST_BAND


@pytest.mark.parametrize("mix", [workloads.FAR_SDP_MIX, workloads.VERIFY_MIX])
def test_gated_mix_puts_the_tail_in_a_dearer_class(mix):
    """The ops cost more the larger n is, so by size alone: the median
    slot lies in the cheapest class, and the 11th-largest slot in a
    dearer one that holds at least 11 slots."""
    sizes = sorted(n for n, count in mix.items() for _ in range(count))
    tail_n = sizes[-run.TAIL_BEYOND - 1]
    assert statistics.median(sizes) == min(sizes) < tail_n
    assert mix[tail_n] >= run.TAIL_BEYOND + 1


def test_large_export_two_exports_then_a_solve(tmp_path):
    _, man = _generate(tmp_path, "large_export")
    ops = man["ops"]
    assert [op["kind"] for op in ops] == ["cli_export", "cli_export", "lib_chi"] * 8
    exports = [op["n"] for op in ops if op["kind"] == "cli_export"]
    assert exports == list(workloads.LARGE_EXPORT_SIZES)
    assert all(op["ref"] <= -0.25 for op in ops)


def test_rational_cli_covers_every_kind_size_and_side(tmp_path):
    work, man = _generate(tmp_path, "rational_cli")
    seen = [(op["input_kind"], op["n"], op["ref"] > 0) for op in man["ops"]]
    assert len(set(seen)) == 18
    assert len(seen) == 6 * sum(workloads.RATIONAL_COPIES.values())
    for op in man["ops"]:
        scale = workloads.SCALE_1E3 if op["input_kind"] == "scaled" else 1
        assert op["eps"] == pytest.approx(workloads.RATIONAL_EPS * scale)
        ref = _reread(work, op)
        assert ref == pytest.approx(op["ref"], abs=1e-9 * scale)
        assert ref > 10 * op["eps"] or ref <= -0.25 * scale


def test_reference_on_known_ranges():
    seg = np.diag([1.0, 3.0]).astype(complex)           # W = [1, 3]
    assert workloads.chi_reference(seg, 0j) == pytest.approx(1.0, abs=1e-12)
    assert workloads.chi_reference(seg, 5 + 0j) == pytest.approx(2.0, abs=1e-12)
    assert workloads.chi_reference(seg, 2 + 1j) == pytest.approx(1.0, abs=1e-12)
    assert workloads.chi_reference(seg, 2 + 0j) <= 1e-12
    # W of [[0, 2], [0, 0]] is the closed unit disc
    nil = np.array([[0, 2], [0, 0]], dtype=complex)
    assert workloads.chi_reference(nil, 3j) == pytest.approx(2.0, abs=1e-12)
    assert workloads.chi_reference(nil, 0.5 + 0j) == pytest.approx(-0.5, abs=1e-9)


def test_tail_is_the_eleventh_largest_sample():
    lat = [float(v) for v in range(30, 0, -1)]       # 30 samples, shuffled order
    value, pct = run.tail(lat)
    assert value == 20.0                             # 21..30 lie beyond it
    assert sum(x > value for x in lat) == 10
    assert pct == pytest.approx(100 * 20 / 30)
    value, pct = run.tail(list(range(11)))
    assert (value, pct) == (0, pytest.approx(100 / 11))
    with pytest.raises(ValueError):
        run.tail(list(range(10)))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "far_sdp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(ln.startswith("{") for ln in proc.stdout.splitlines())


def test_benchmark_json_metrics_are_all_computed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    # 19 slots of 1 s and 11 of 3 s, each run three times, twice on a host
    # half as fast, where the probe takes twice its reference time too
    cost = [1.0] * 19 + [3.0] * 11
    execs = [{"slot": i, "latency_s": c * f, "probe_s": run.PROBE_REF_S * f,
              "status": "ok", "err_over_eps": 0.5, "kind": "lib_chi"}
             for f in (2.0, 2.0, 1.0) for i, c in enumerate(cost)]
    res = {"executions": execs, "rounds_completed": 3, "elapsed_s": 122.5,
           "rss_kb": 40960, "exit_codes": {"0": 3},
           "trace": {"self_times": {}, "counts": dict.fromkeys(
               ("iterations", "feasibility_cuts", "cap_exceeded", "oracle_evals",
                "scale_digits_max"), 0)}}
    e2e, _ = run.end_to_end(res, [0.1, 0.2, 0.3])
    layer = run.per_layer(res, 1.0)
    assert {m["name"] for m in spec["end_to_end"]} <= set(e2e)
    assert {m["name"] for m in spec["per_layer"]} <= set(layer)
    assert e2e["ops_per_s"] == pytest.approx(30 / 52.0)
    assert e2e["op_p50_s"] == pytest.approx(1.0)
    assert e2e["op_tail_s"] == pytest.approx(3.0)
    assert e2e["setup_s"] == 0.2 and e2e["fail_ratio"] == 0.0
    wall, _ = run.end_to_end(res, [0.1, 0.2, 0.3], latencies=run.wall_latencies)
    assert (wall["op_p50_s"], wall["op_tail_s"]) == (2.0, 6.0)
    assert all(math.isfinite(v) for v in list(e2e.values()) + list(layer.values()))
