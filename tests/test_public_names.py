"""No dead code by name: every module-level function or class of geodlab,
every public method of a public class and every private method that is not
a dunder is named somewhere in src/geodlab outside its own def.  A name
only the tests call belongs in tests/oracles.py.  The scan reads the source
with ``ast`` and imports nothing."""

import ast
import collections
import shutil
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "geodlab"

# names the package itself never calls, with the reason they stay
ALLOWED = {
    "graphs.GraphOfGroups.nb_transfer":
        "perfbench/tracer.py wraps it by name (METHODS)",
    "ffield.QuadIrr.apply_homography":
        "perfbench/tracer.py wraps it by name (METHODS)",
}


def _names(node):
    """Every name and attribute named under ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _private(name):
    return name.startswith("_")


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _defs(tree, module):
    """(qualified name, def node) of the functions and classes of a module,
    the public methods of its public classes and the private methods of
    all its classes but the dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if (isinstance(sub, ast.FunctionDef)
                        and not _dunder(sub.name)
                        and (_private(sub.name) or not _private(node.name))):
                    yield f"{module}.{node.name}.{sub.name}", sub


def unreferenced(package):
    """The qualified names of the package whose name appears nowhere in it
    but inside their own def, in file order."""
    refs, defs = collections.Counter(), []
    for path in sorted(Path(package).glob("*.py")):
        tree = ast.parse(path.read_text())
        refs.update(_names(tree))
        defs += _defs(tree, path.stem)
    return [qual for qual, node in defs
            if refs[node.name] == list(_names(node)).count(node.name)]


def test_every_public_name_is_referenced():
    assert [q for q in unreferenced(PACKAGE) if q not in ALLOWED
            and not _private(q.rsplit(".", 1)[1])] == []


def test_every_private_name_is_referenced():
    assert [q for q in unreferenced(PACKAGE)
            if _private(q.rsplit(".", 1)[1])] == []


def test_guard_sees_an_unreferenced_function(tmp_path):
    # negative control: a public and a private function that nothing calls,
    # each of which calls itself
    copy = tmp_path / "geodlab"
    shutil.copytree(PACKAGE, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(copy / "graphs.py", "a") as fh:
        for name in ("orphan", "_orphan"):
            fh.write(f"\n\ndef {name}(n):\n"
                     f"    return {name}(n - 1) if n else 0\n")
    assert [q for q in unreferenced(copy) if q not in ALLOWED] == [
        "graphs.orphan", "graphs._orphan"]
