#!/usr/bin/env python3
"""Fixed-seed benchmark of the crawford package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  NAME is one of the four workloads of
workloads.WORKLOADS (BENCHMARK.json gates the first two), or "all" to run
each in turn.  The program is imported
from ./src; every workload run happens in a fresh child process with the
BLAS thread count pinned to 1 (a closed loop with one client).

--trace 0 prints the end-to-end metrics; --trace 1 makes an untraced and
then a traced run of the same seed and prints the per-layer metrics,
each layer's share of op wall time, and the tracing overhead.  The
end-to-end timings are adjusted for the host's speed by a probe timed
between ops (README.md, "Host speed"), with wall-clock values beside
them.  Either
way the last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}, and the full result, with
the run environment and every op's latency, goes to perfbench/_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
SETUP_SAMPLES = 9
BLAS_THREADS = "1"
HARD_LIMIT_S = 150          # no op starts later than this into a run
CHILD_GRACE_S = 20          # time the last op may take past the limit
TAIL_BEYOND = 10
# child.Probe's typical time on the machine this benchmark was written on
# (two-vCPU x86-64 VM, numpy 2.4 with OpenBLAS), so that adjusted
# latencies read close to seconds there
PROBE_REF_S = 3.3e-3
PROBE_WINDOW = 2
PROBE_ADJUSTED = ("ops_per_s", "op_p50_s", "op_tail_s", "setup_s")
EXIT_CODES = ("0", "2", "3", "4", "5")
LINALG_PREP = (
    "linalg.translate", "linalg.clear_denominators",
    "linalg.hermitian_split", "linalg.frobenius_ceiling",
)


class BenchError(RuntimeError):
    pass


def tail(latencies, beyond: int = TAIL_BEYOND):
    """(value, percentile) at the highest percentile that still has
    `beyond` samples above it: the (beyond+1)-th largest sample, which is
    the nearest-rank percentile 100 (n - beyond) / n."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples, got {n}")
    return xs[n - beyond - 1], 100.0 * (n - beyond) / n


# --- child processes ---------------------------------------------------

def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _child(root, work, tag, deadline, extra) -> dict:
    out = work / f"{tag}.json"
    cmd = [
        sys.executable, str(BENCH / "child.py"), str(work / "manifest.json"),
        "--src", str(root / "src"), "--out", str(out), "--deadline", repr(deadline),
    ] + extra
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=_child_env(root), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.time()) + CHILD_GRACE_S,
        )
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{tag}: child timed out") from e
    if proc.returncode != 0:
        raise BenchError(f"{tag}: child exited {proc.returncode}\n{proc.stderr}")
    return json.loads(out.read_text())


def _git_commit(root: Path):
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root:
        return None
    return lines[1]


def _src_sha256(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted((root / "src").rglob("*.py")):
        h.update(p.relative_to(root).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


# --- metrics -----------------------------------------------------------

def adjusted_latencies(execs: list) -> list:
    """Each execution's latency at the host speed where the probe takes
    PROBE_REF_S: latency * PROBE_REF_S / p, with p the median probe time
    over the execution and the PROBE_WINDOW executions on either side
    (in run order), as one probe reading can be disturbed."""
    probes = [e["probe_s"] for e in execs]
    k = PROBE_WINDOW
    return [
        e["latency_s"] * PROBE_REF_S / statistics.median(probes[max(0, i - k):i + k + 1])
        for i, e in enumerate(execs)
    ]


def wall_latencies(execs: list) -> list:
    return [e["latency_s"] for e in execs]


def slot_latencies(res: dict, latencies=adjusted_latencies) -> list:
    """Per slot, in slot order: (median latency over its executions,
    all of them correct?)."""
    lats: dict = {}
    ok: dict = {}
    execs = res["executions"]
    for e, lat in zip(execs, latencies(execs)):
        lats.setdefault(e["slot"], []).append(lat)
        ok[e["slot"]] = ok.get(e["slot"], True) and e["status"] == "ok"
    return [(statistics.median(lats[k]), ok[k]) for k in sorted(lats)]


def round_ops_per_s(slots: list) -> float:
    """Correct slots per second of one round at each slot's median latency."""
    return sum(ok for _, ok in slots) / sum(lat for lat, _ in slots)


def end_to_end(res: dict, setup_samples: list, latencies=adjusted_latencies) -> tuple:
    """Metric values and the sample note printed beside each."""
    slots = slot_latencies(res, latencies)
    lat = [lat for lat, _ in slots]
    ok = sum(ok for _, ok in slots)
    n = len(slots)
    tail_s, pct = tail(lat)
    execs = res["executions"]
    failed = sum(e["status"] != "ok" for e in execs)
    rounds = res["rounds_completed"]
    values = {
        "ops_per_s": round_ops_per_s(slots),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_s,
        "fail_ratio": failed / len(execs),
        "peak_rss_mb": res["rss_kb"] / 1024.0,
        "setup_s": statistics.median(setup_samples),
    }
    notes = {
        "ops_per_s": f"{ok} correct of {n} ops / {sum(lat):.2f} s of median latencies",
        "op_p50_s": f"n={n} ops, each the median of {rounds} or more runs",
        "op_tail_s": f"p{pct:.1f}, {TAIL_BEYOND} ops beyond, n={n}",
        "fail_ratio": f"{failed}/{len(execs)} executions",
        "peak_rss_mb": "1 child process",
        "setup_s": f"median of {len(setup_samples)} fresh processes",
    }
    return values, notes


def per_layer(res: dict, untraced_ops_per_s: float) -> dict:
    st = res["trace"]["self_times"]
    counts = res["trace"]["counts"]
    execs = res["executions"]
    n = len(execs)

    def calls(*names):
        return sum(st.get(x, (0, 0.0, 0.0))[0] for x in names)

    def total(*names):
        return sum(st.get(x, (0, 0.0, 0.0))[1] for x in names)

    def own(*names):
        return sum(st.get(x, (0, 0.0, 0.0))[2] for x in names)

    iters = counts["iterations"]
    search = total("oracle.support_search")
    exports = [e["bytes"] for e in execs if "bytes" in e]
    errs = [e["err_over_eps"] for e in execs if e["err_over_eps"] is not None]
    traced_ops_per_s = round_ops_per_s(slot_latencies(res))
    wall = sum(e["latency_s"] for e in execs)
    m = {
        "linalg.prep_s": own(*LINALG_PREP) / n,
        "linalg.scale_digits_max": counts["scale_digits_max"],
        "sdp.build_s": own("sdp.build_instance") / n,
        "sdp.export_s": own("sdp.export_sdpa") / n,
        "sdp.export_bytes": statistics.mean(exports) if exports else 0,
        "ellipsoid.ball_s": own("ellipsoid.certified_ball") / n,
        "ellipsoid.chart_s": own("ellipsoid.build_chart") / n,
        "ellipsoid.solve_self_s": own("ellipsoid.solve") / n,
        "ellipsoid.separation_s": own("ellipsoid.separation_oracle") / n,
        "ellipsoid.point_s": own("ellipsoid.point") / n,
        "ellipsoid.repair_s": own("ellipsoid.repair_point") / n,
        "ellipsoid.iterations": iters / n,
        "ellipsoid.us_per_iter": 1e6 * total("ellipsoid.solve") / iters if iters else 0,
        "ellipsoid.feas_cut_share": counts["feasibility_cuts"] / iters if iters else 0,
        "ellipsoid.improving_share": calls("ellipsoid.repair_point") / iters if iters else 0,
        "ellipsoid.cap_exceeded": counts["cap_exceeded"],
        "oracle.search_s": own("oracle.support_search") / n,
        "oracle.evals": counts["oracle_evals"] / n,
        "oracle.evals_per_s": counts["oracle_evals"] / search if search else 0,
        "api.self_s": own("api.crawford") / n,
        "api.queries_per_op": calls("api.crawford") / n,
        "api.err_over_eps_max": max(errs) if errs else 0,
        "cli.parse_s": own("cli.load_matrix") / n,
        "cli.self_s": own("cli.main") / n,
    }
    for code in EXIT_CODES:
        m[f"cli.exit_code.{code}"] = res["exit_codes"].get(code, 0)
    for layer in ("linalg", "sdp", "ellipsoid", "oracle", "api", "cli"):
        names = [x for x in st if x.startswith(layer + ".")]
        m[f"{layer}.share"] = own(*names) / wall
    m["trace.ops_per_s"] = traced_ops_per_s
    m["trace.overhead"] = 1.0 - traced_ops_per_s / untraced_ops_per_s
    return m


# --- one workload ------------------------------------------------------

def run_workload(root: Path, spec: dict, name: str, seed: int, seconds: int, trace: bool):
    """Returns (correct, attempted, failed, metric values, notes)."""
    start = time.time()
    work = BENCH / "_work" / f"{name}-{seed}-{os.getpid()}"
    out_dir = BENCH / "_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    try:
        manifest = workloads.generate(name, seed, work)
        (work / "manifest.json").write_text(json.dumps(manifest))
        def setup_children(tag, count):
            return [
                _child(root, work, f"{tag}{i}", start + HARD_LIMIT_S, ["--setup-only"])
                for i in range(count)
            ]

        # set-up samples before and after the timed loop, so that they
        # are not all taken in one stretch of the host's load
        setups = setup_children("setup-before", SETUP_SAMPLES // 2)
        loop = ["--seconds", str(seconds)]
        # untraced first; in a traced run it gets half the time limit
        limit = start + (HARD_LIMIT_S / 2 if trace else HARD_LIMIT_S)
        plain = _child(root, work, "plain", limit, loop + ["--trace", "0"])
        setups.append(plain)
        setups += setup_children("setup-after", SETUP_SAMPLES - 1 - SETUP_SAMPLES // 2)
        setup = [r["setup_s"] for r in setups]
        setup_probe = [r["setup_probe_s"] for r in setups]
        values, notes = end_to_end(
            plain, [t * PROBE_REF_S / p for t, p in zip(setup, setup_probe)]
        )
        wall, _ = end_to_end(plain, setup, latencies=wall_latencies)
        wall = {k: wall[k] for k in PROBE_ADJUSTED}
        for k in PROBE_ADJUSTED:
            notes[k] += f"; wall clock {wall[k]:.6g}"
        res = plain
        if trace:
            res = _child(
                root, work, "traced", start + HARD_LIMIT_S,
                loop + ["--trace", "1", "--spans", str(out_dir / f"{stem}-spans.npz")],
            )
            values = per_layer(res, values["ops_per_s"])
            notes = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    statuses = [e["status"] for e in plain["executions"] + res["executions"]]
    failed = sum(e["status"] != "ok" for e in res["executions"])
    record = {
        "environment": {
            "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": res["python"], "numpy": res["numpy"],
            "platform": platform.platform(), "blas_threads_pinned": int(BLAS_THREADS),
            "git_commit": _git_commit(root), "src_sha256": _src_sha256(root),
        },
        "metrics": values,
        "notes": notes,
        "wall_clock": wall,
        "setup_samples_s": setup,
        "setup_probe_s": setup_probe,
        "rounds_completed": res["rounds_completed"],
        "elapsed_s": res["elapsed_s"],
        "executions": res["executions"],
        "exit_codes": res["exit_codes"],
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    _print_report(record, spec, values, notes, trace)
    correct = "wrong" not in statuses
    return correct, len(res["executions"]), failed, values


def _print_report(record, spec, values, notes, trace):
    env = record["environment"]
    print(
        f"== {env['workload']}  seed {env['seed']}  seconds {env['seconds']}  "
        f"trace {env['trace']}  ({record['rounds_completed']} rounds)"
    )
    print(
        f"   nproc {env['nproc']}  python {env['python']}  numpy {env['numpy']}  "
        f"blas threads {env['blas_threads_pinned']}  commit {env['git_commit']}"
    )
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.setdefault("fail_ratio", "1")
    for name, value in values.items():
        print(f"   {name:28s} {value:14.6g} {units.get(name, ''):9s} {notes.get(name, '')}")
    if trace:
        shares = {k: v for k, v in values.items() if k.endswith(".share")}
        print(f"   other (harness, untraced code) share {1.0 - sum(shares.values()):.3f}")
    wrong = [e for e in record["executions"] if e["status"] == "wrong"]
    for e in wrong[:5]:
        print(f"   WRONG op slot {e['slot']} ({e['kind']}, n={e['n']}): {e['detail']}")
    sys.stdout.flush()


def main() -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = list(workloads.WORKLOADS)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd().resolve()
    if not (root / "src" / "crawford" / "__init__.py").is_file():
        print(f"error: no src/crawford under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    all_correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names if args.workload == "all" else [args.workload]:
        try:
            correct, a, f, values = run_workload(
                root, spec, name, args.seed, args.seconds, bool(args.trace)
            )
        except BenchError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        all_correct &= correct
        attempted += a
        failed += f
        prefix = f"{name}." if args.workload == "all" else ""
        for m in wanted:
            metrics[prefix + m] = {"value": values[m], "unit": units[m]}
    print(json.dumps({
        "correct": all_correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
