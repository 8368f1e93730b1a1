"""perfbench's tracer patches program functions by module and attribute
name, and a traced run fails on the first one that is gone.  This test
resolves every target against the package on the test path, so a rename
that breaks `perfbench/run.py --trace 1` fails here first."""

import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # the oracle's evaluation counter is patched outside TARGETS
    return [(s, a) for s, a, _ in tracing.TARGETS] + [("crawford.oracle", "_gmin_at")]


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
