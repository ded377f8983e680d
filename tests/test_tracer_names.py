"""The names of geodlab that perfbench/tracer.py reaches into.

The tracer wraps each hot method it lists in ``METHODS`` by reading
``vars(cls)[name]``, and its arg hook of ``counting.count_perpendiculars``
reads the graph and the horizon of the query.  A rename or deletion in
geodlab would otherwise show only when the benchmark runs with tracing on.
The tracer is loaded from its file, read only.
"""

import importlib
import importlib.util
from pathlib import Path

from geodlab.counting import PerpQuery
from geodlab.library import petersen

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
