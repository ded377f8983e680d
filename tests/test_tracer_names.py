"""The names of geodlab that perfbench/tracer.py reaches into.

The tracer wraps each hot method it lists in ``METHODS`` by reading
``vars(cls)[name]``, and its arg hook of ``counting.count_perpendiculars``
reads the graph and the horizon of the query.  A rename or deletion in
geodlab would otherwise show only when the benchmark runs with tracing on.
The tracer is loaded from its file, read only.  The smoke runs start it
as the benchmark does, in a fresh interpreter right after which it reads
every module from sys.modules: the package registers them lazily, and the
tracer's ``vars(mod)`` is what runs them.
"""

import importlib
import importlib.util
import json
import os
from pathlib import Path
import subprocess
import sys

import pytest

from geodlab.counting import PerpQuery
from geodlab.library import petersen

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _missing_methods(methods):
    """The (module, class, method) entries of a METHODS table that the
    tracer would not find as ``vars(cls)[method]``."""
    out = []
    for (owner, cls_name), names in methods.items():
        cls = getattr(importlib.import_module(f"geodlab.{owner}"), cls_name,
                      None)
        out += [(owner, cls_name, name) for name in names
                if cls is None or name not in vars(cls)]
    return out


def test_traced_methods_exist():
    assert _missing_methods(_tracer().METHODS) == []


def test_missing_method_is_reported():
    # negative control: an entry geodlab does not define
    methods = dict(_tracer().METHODS)
    methods[("graphs", "GraphOfGroups")] = {"nb_transfer": "graphs.x",
                                            "no_such_method": "graphs.y"}
    assert _missing_methods(methods) == [
        ("graphs", "GraphOfGroups", "no_such_method")]


def test_count_perpendiculars_hook_reads_a_query():
    tracer = _tracer()
    hook = tracer.ARG_HOOKS["counting.count_perpendiculars"]
    state = tracer.Tracer()
    query = PerpQuery(petersen(), "P0", "P1", 5)
    assert hook(state, (query,), {}) == ((query,), {})
    # 30 edge states stepped 4 times
    assert state.counters["counting.dp_edge_steps"] == 30 * 4


def _run(args, tmp_path):
    env = dict(os.environ)
    env.pop("GEODLAB_BUDGET", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, cwd=tmp_path)


@pytest.mark.parametrize("argv, stat, counter", [
    (["graph", "seed", "--master", "7"], "cli.cmd_seed", None),
    (["bt", "quad-orbit", "--q", "3", "--disc", "Y^2+Y"],
     "bt.quad_orbit_experiment", "bt.quad_orbit.size"),
])
def test_traced_run_prints_what_the_cli_prints(tmp_path, argv, stat,
                                               counter):
    plain = _run(["-m", "geodlab.cli", *argv], tmp_path)
    traced = _run([str(TRACER), str(tmp_path / "trace.json"), *argv],
                  tmp_path)
    assert traced.returncode == plain.returncode == 0
    assert traced.stdout == plain.stdout and traced.stderr == ""
    trace = json.loads((tmp_path / "trace.json").read_text())
    calls, _, _, errors = trace["stats"][stat]
    assert (calls, errors) == (1, 0)
    if counter is not None:
        assert trace["counters"][counter] > 0
