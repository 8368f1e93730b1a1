"""perfbench's tracer patches program functions by module and attribute
name, and a traced run fails on the first one that is gone.  This test
resolves every target against the package on the test path, so a rename
that breaks `perfbench/run.py --trace 1` fails here first.  It also reads
the benchmark's runner and its tests, without running them, and resolves
every `crawford` name they use, so a deletion that would end a benchmark
run as `run_failed` fails here instead.  Its counters read attributes
of the traced functions' results and of `EllipsoidCapExceeded`; each hook
is fed a real one, so a renamed attribute fails here too."""

import ast
import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from helpers import COPRIME_DENOMINATORS, EXAMPLE, large

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
# the files that call the package, besides the tracer
BENCH_CALLERS = [ROOT / "perfbench" / "child.py", ROOT / "perfbench" / "test_perfbench.py"]


def _tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _targets():
    # the oracle's evaluation counter is patched outside TARGETS
    return [(s, a) for s, a, _ in _tracing().TARGETS] + [("crawford.oracle", "_gmin_at")]


def test_package_is_the_checkout():
    crawford = importlib.import_module("crawford")
    assert Path(crawford.__file__).resolve().parent == ROOT / "src" / "crawford"


@pytest.mark.parametrize("spec, attr", _targets())
def test_trace_target_resolves(spec, attr):
    mod, _, cls = spec.partition(":")
    owner = importlib.import_module(mod)
    if cls:
        owner = getattr(owner, cls)
    assert callable(getattr(owner, attr))


def _dotted(node):
    """"a.b.c" for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def _bench_names():
    """Every crawford.* name the callers use, through `from crawford.m
    import x` or an attribute chain on the package or on a name bound to
    part of it (`self.cf = crawford`, `api = self.cf.api`)."""
    names = set()
    for path in BENCH_CALLERS:
        tree = ast.parse(path.read_text(), str(path))
        aliases = {"crawford": "crawford"}

        def resolve(dotted):
            for alias, target in aliases.items():
                if dotted == alias or dotted.startswith(alias + "."):
                    return target + dotted[len(alias):]
            return None

        assigns = [
            (_dotted(n.targets[0]), _dotted(n.value))
            for n in ast.walk(tree)
            if isinstance(n, ast.Assign) and len(n.targets) == 1
        ]
        grown = True
        while grown:
            grown = False
            for target, value in assigns:
                full = value and resolve(value)
                if target and full and target not in aliases:
                    aliases[target] = full
                    grown = True
        for n in ast.walk(tree):
            if isinstance(n, ast.ImportFrom) and (n.module or "").startswith("crawford"):
                names.update(f"{n.module}.{a.name}" for a in n.names)
            elif isinstance(n, ast.Attribute) and (dotted := _dotted(n)):
                full = resolve(dotted)
                if full:
                    names.add(full)
    return sorted(names)


def test_bench_scan_sees_the_calls():
    assert {
        "crawford.api.CrawfordQuery",
        "crawford.api.crawford",
        "crawford.linalg.GaussianRational",
        "crawford.ellipsoid.EllipsoidCapExceeded",
        "crawford.cli.main",
        "crawford.cli.load_matrix",
        "crawford.cli.parse_gaussian",
        "crawford.sdp.read_sdpa",
    } <= set(_bench_names())


@pytest.mark.parametrize("name", _bench_names())
def test_bench_name_resolves(name):
    obj = importlib.import_module("crawford")
    path = "crawford"
    for part in name.split(".")[1:]:
        path += "." + part
        obj = getattr(obj, part) if hasattr(obj, part) else importlib.import_module(path)


def test_tracer_hooks_read_real_results():
    from crawford import api, ellipsoid, linalg, oracle

    tracer = _tracing().Tracer()
    counts = tracer.counts
    inst, ts, _ = api.scaled_instance(EXAMPLE)
    ball = ellipsoid.certified_ball(inst, ts)
    res = ellipsoid.solve(ball, 1e-4)
    tracer._after_solve(res)
    assert counts["iterations"] == res.iterations

    # eps/s far below float resolution: the run ends in the exception
    inst, ts, scale = api.scaled_instance(large(10**12))
    with pytest.raises(ellipsoid.EllipsoidCapExceeded) as err:
        ellipsoid.solve(ellipsoid.certified_ball(inst, ts), 1e-4 / float(scale))
    tracer._solve_error(err.value)
    assert counts["cap_exceeded"] == 1
    assert counts["iterations"] == res.iterations + err.value.iterations

    chart = ball.chart
    centre = ellipsoid.separation_oracle(chart, np.zeros(chart.dim), math.inf)
    # r = c + 1 + u_d / sqrt(3) beyond the ceiling c + 2
    beyond = ellipsoid.separation_oracle(chart, np.eye(chart.dim)[-1] * 10.0, math.inf)
    assert (centre.kind, beyond.kind) == ("objective", "feasibility")
    tracer._after_separation(centre)
    tracer._after_separation(beyond)
    assert counts["feasibility_cuts"] == 1

    search = oracle.support_search(EXAMPLE, 1e-4)
    tracer._after_search(search)
    assert counts["oracle_evals"] == search.grid_size > 0

    tracer._after_clear(linalg.clear_denominators(COPRIME_DENOMINATORS))
    assert counts["scale_digits_max"] == len("21")
