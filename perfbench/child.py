"""One workload run in a fresh process (started by run.py).

    python3 child.py MANIFEST --src SRC --out RESULT.json [--setup-only]
                     [--seconds S --deadline T --trace 0|1 --spans FILE]

Set-up is timed from before `import crawford` to after `cli.load_matrix`
of every input the library ops use.  The closed loop then repeats the
manifest's round of ops, one op at a time, each round in a fresh seeded
order; once MIN_ROUNDS whole rounds ran it stops as soon as --seconds
have passed, and it stops at the hard --deadline in any case.  A probe
(`Probe`) is timed before the first op and after each one.  Outputs are
checked against the references only after the timed loop.  The result,
with every execution's latency and probe time, goes to --out.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import random
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

MIN_ROUNDS = 2

# op status after checking
OK, HONEST_FAIL, WRONG = "ok", "honest_fail", "wrong"


def _parse_args():
    ap = argparse.ArgumentParser()
    ap.add_argument("manifest")
    ap.add_argument("--src", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--deadline", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans", default=None)
    return ap.parse_args()


class Runner:
    """Runs the ops of a manifest and checks what each returned."""

    def __init__(self, crawford, workdir: Path, matrices: dict):
        self.cf = crawford
        self.workdir = workdir
        self.matrices = matrices

    def execute(self, op: dict, seq: int):
        """Run one op; returns the raw outcome, checked later."""
        if op["kind"] == "lib_chi":
            return self._lib_chi(op)
        return self._cli(self._argv(op, seq))

    def _lib_chi(self, op):
        api = self.cf.api
        re, im = op["center_parts"]
        query = api.CrawfordQuery(
            matrix=self.matrices[op["file"]],
            center=self.cf.linalg.GaussianRational(Fraction(re), Fraction(im)),
            epsilon=op["eps"],
        )
        try:
            return {"chi": api.crawford(query).chi}
        except self.cf.ellipsoid.EllipsoidCapExceeded:
            return {"cap_exceeded": True}
        except Exception as e:  # any other exception is a wrong outcome
            return {"error": repr(e)}

    def _argv(self, op, seq):
        path = str(self.workdir / op["file"])
        eps = repr(op["eps"])
        if op["kind"] == "cli_chi":
            return ["chi", path, "--center", op["center"], "--eps", eps, "--json"]
        if op["kind"] == "cli_verify":
            return ["verify", path, "--center", op["center"], "--eps", eps]
        if op["kind"] == "cli_export":
            out = str(self.workdir / f"x{seq:05d}.dat-s")
            return ["export", path, "--center", op["center"], "--out", out]
        raise ValueError(op["kind"])

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cf.cli.main(argv)
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else 2
            except Exception as e:  # a crash, not an exit code
                return {"error": repr(e), "argv": argv}
        return {"code": code, "stdout": out.getvalue(), "argv": argv}

    # --- checks (after the timed loop) ------------------------------

    def check(self, op: dict, raw: dict) -> dict:
        """{"status", "err_over_eps", "detail"}; export ops add "bytes"."""
        if "error" in raw:
            return _verdict(WRONG, raw["error"])
        if raw.get("cap_exceeded"):
            return _verdict(HONEST_FAIL, "EllipsoidCapExceeded")
        kind = op["kind"]
        if kind == "lib_chi":
            return _value(op, raw["chi"])
        code = raw["code"]
        if kind == "cli_export":
            return self._export(op, raw) if code == 0 else _verdict(WRONG, f"exit {code}")
        # exit 3 is the program's honest report of EllipsoidCapExceeded;
        # any other non-zero exit (5: verify found a wrong value) is wrong
        if code == 3:
            return _verdict(HONEST_FAIL, "exit 3")
        if code != 0:
            return _verdict(WRONG, f"exit {code}")
        lines = raw["stdout"].strip().splitlines()
        try:
            if kind == "cli_chi":
                return _value(op, float(json.loads(lines[-1])["chi"]))
            if lines[-1] != "verify OK":
                return _verdict(WRONG, "no 'verify OK'")
            sdp = next(ln for ln in lines if ln.startswith("SDP value"))
            return _value(op, float(sdp.split("=")[1]))
        except (IndexError, KeyError, ValueError, StopIteration) as e:
            return _verdict(WRONG, f"unreadable output: {e!r}")

    def _export(self, op, raw):
        path = Path(raw["argv"][raw["argv"].index("--out") + 1])
        n = op["n"]
        try:
            data = self.cf.sdp.read_sdpa(path)
            size = path.stat().st_size
        except (OSError, ValueError) as e:
            return _verdict(WRONG, f"export unreadable: {e!r}")
        finally:
            path.unlink(missing_ok=True)
        if data.mdim != n * n + 7 * n + 6 or tuple(data.block_sizes) != (2 * n, 2, 1):
            return _verdict(WRONG, f"mDIM {data.mdim}, blocks {data.block_sizes}")
        return dict(_verdict(OK, ""), bytes=size)


def _verdict(status, detail, err_over_eps=None) -> dict:
    return {"status": status, "err_over_eps": err_over_eps, "detail": detail}


def _value(op, chi) -> dict:
    err = abs(chi - max(0.0, op["ref"]))
    return _verdict(
        OK if err <= op["tol"] else WRONG,
        f"chi {chi!r} vs reference {op['ref']!r}",
        err / op["eps"],
    )


def main() -> int:
    args = _parse_args()
    t0 = time.perf_counter()
    import crawford
    import crawford.cli

    src = Path(args.src).resolve()
    if src not in Path(crawford.__file__).resolve().parents:
        print(f"crawford imported from {crawford.__file__}, not {src}", file=sys.stderr)
        return 3
    manifest = json.loads(Path(args.manifest).read_text())
    workdir = Path(args.manifest).parent
    lib_files = sorted({op["file"] for op in manifest["ops"] if op["kind"] == "lib_chi"})
    matrices = {f: crawford.cli.load_matrix(workdir / f) for f in lib_files}
    setup_s = time.perf_counter() - t0

    import numpy as np

    result = {"setup_s": setup_s, "setup_probe_s": Probe()()}
    if not args.setup_only:
        result.update(_timed_loop(args, crawford, workdir, matrices, manifest))
        result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["numpy"] = np.__version__
        result["python"] = platform.python_version()
    Path(args.out).write_text(json.dumps(result))
    return 0


class Probe:
    """A fixed piece of numpy work of the kind an ellipsoid iteration does
    (a small eigvalsh, a matrix-vector product, a rank-one update), timed
    between ops to read the host's speed at that moment.  A call returns
    the median of three timings of 150 steps, about 3 ms in all."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        h = rng.standard_normal((6, 6))
        self.np = np
        self.h = h + h.T
        self.p = np.eye(30)
        self.b = 0.01 * rng.standard_normal(30)

    def _steps(self) -> float:
        np, h, p, b = self.np, self.h, self.p, self.b
        acc = 0.0
        for _ in range(150):
            pb = p @ b
            q = p - 1e-3 * np.outer(pb, pb)
            acc += float(np.linalg.eigvalsh(h)[0]) + float(b @ pb) + float(q[0, 0])
        return acc

    def __call__(self) -> float:
        times = []
        for _ in range(3):
            t = time.perf_counter()
            self._steps()
            times.append(time.perf_counter() - t)
        return sorted(times)[1]


def _timed_loop(args, crawford, workdir, matrices, manifest) -> dict:
    runner = Runner(crawford, workdir, matrices)
    ops = manifest["ops"]
    tracer = None
    execute = runner.execute
    if args.trace:
        from tracing import Tracer  # imports numpy, so not before set-up

        tracer = Tracer()
        execute = tracer.wrap("bench.op", runner.execute)

    # each round runs the slots in a fresh seeded order, so a slot's
    # repeats fall at different points of the run
    order = list(range(len(ops)))
    shuffle = random.Random(manifest["seed"]).shuffle
    records = []  # (slot, latency, probe time around it, raw outcome)
    rounds = 0
    probe = Probe()
    with tracer.install() if tracer else contextlib.nullcontext():
        clock = time.perf_counter
        start = clock()
        before = probe()
        done = False
        while not done:
            shuffle(order)
            for slot in order:
                seq = len(records)
                if tracer:
                    tracer.op_id = seq
                t = clock()
                raw = execute(ops[slot], seq)
                lat = clock() - t
                after = probe()
                records.append((slot, lat, 0.5 * (before + after), raw))
                before = after
                done = time.time() > args.deadline or (
                    rounds >= MIN_ROUNDS and clock() - start >= args.seconds
                )
                if done:
                    break
            else:
                rounds += 1
                done = rounds >= MIN_ROUNDS and clock() - start >= args.seconds
        elapsed = clock() - start

    executions = []
    exit_codes: dict = {}
    for slot, lat, probe_s, raw in records:
        op = ops[slot]
        if "code" in raw:
            key = str(raw["code"])
            exit_codes[key] = exit_codes.get(key, 0) + 1
        verdict = runner.check(op, raw)
        if verdict["status"] == OK:
            del verdict["detail"]
        executions.append(dict(
            verdict, slot=slot, kind=op["kind"], n=op["n"], latency_s=lat, probe_s=probe_s,
        ))

    out = {
        "elapsed_s": elapsed,
        "rounds_completed": rounds,
        "executions": executions,
        "exit_codes": exit_codes,
    }
    if tracer:
        if args.spans:
            tracer.save(args.spans)
        out["trace"] = {
            "self_times": tracer.self_times(),
            "counts": tracer.counts,
        }
    return out


if __name__ == "__main__":
    sys.exit(main())
