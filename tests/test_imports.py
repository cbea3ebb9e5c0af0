"""A command imports only the modules it runs.

``nodalpol`` resolves its exported names on first use, ``cli`` imports
``balanced`` and ``search`` inside the commands that need them, and the
benchmark's workloads hold every module they run once prepared, since
``bench/tracing.py`` wraps only functions of modules already loaded.
Each check runs in a fresh interpreter.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'nodalpol')"


def _run(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, cwd=ROOT
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize(
    "module, absent",
    [
        ("nodalpol", {"nodalpol.curve", "nodalpol.cli", "nodalpol.search"}),
        ("nodalpol.cli", {"nodalpol.search", "nodalpol.balanced"}),
        ("nodalpol.search", {"nodalpol.cli", "nodalpol.balanced"}),
    ],
)
def test_module_loads_no_unused_module(module, absent):
    loaded = eval(_run(f"import sys, {module}; print({LOADED})"))
    assert module in loaded
    assert absent.isdisjoint(loaded)


def test_exported_names_resolve_to_their_home_objects():
    code = """
import sys, nodalpol
for name in nodalpol.__all__:
    obj = getattr(nodalpol, name)
    assert getattr(sys.modules[obj.__module__], name) is obj, name
    assert obj.__module__.startswith("nodalpol."), name
assert sorted(dir(nodalpol)) == dir(nodalpol) and set(nodalpol.__all__) <= set(dir(nodalpol))
try:
    nodalpol.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("an unknown name resolved")
try:
    from nodalpol import no_such_name
except ImportError:
    pass
else:
    raise AssertionError("an unknown name imported")
print(len(nodalpol.__all__))
"""
    assert _run(code).strip() == "47"


@pytest.mark.parametrize("workload", ["wide_analyze", "campaign_exhaustive", "campaign_sampled"])
def test_benchmark_round_imports_nothing_after_prepare(workload, tmp_path):
    # Outputs go under tmp_path, not to the benchmark's own directory.
    code = f"""
import importlib.util, sys
from pathlib import Path
spec = importlib.util.spec_from_file_location("bench_run", "bench/run.py")
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)
w = bench.make_workload({workload!r}, 1)
w.prepare()
for attr in ("input_dir", "first_out", "csv_path", "first_csv"):
    if hasattr(w, attr):
        setattr(w, attr, Path({str(tmp_path)!r}) / attr)
w.write_inputs()
before = {LOADED}
assert w.run_round(stamp=True).ops > 0
print(sorted(set({LOADED}) - set(before)))
"""
    assert _run(code).strip() == "[]"
