"""No dead public API: every public module-level function or class of
geodlab, and every public method of a public class, is named somewhere in
src/geodlab outside its own def.  A name only the tests call belongs in
tests/oracles.py.  The scan reads the source with ``ast`` and imports
nothing."""

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


def _public_defs(tree, module):
    """(qualified name, def node) of the public functions and classes of a
    module and the public methods of its public classes."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield f"{module}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if (isinstance(sub, ast.FunctionDef)
                            and not sub.name.startswith("_")):
                        yield f"{module}.{node.name}.{sub.name}", sub


def unreferenced(package):
    """The qualified public names of the package whose name appears nowhere
    in it but inside their own def, in file order."""
    refs, defs = collections.Counter(), []
    for path in sorted(Path(package).glob("*.py")):
        tree = ast.parse(path.read_text())
        refs.update(_names(tree))
        defs += _public_defs(tree, path.stem)
    return [qual for qual, node in defs
            if refs[node.name] == list(_names(node)).count(node.name)]


def test_every_public_name_is_referenced():
    assert [q for q in unreferenced(PACKAGE) if q not in ALLOWED] == []


def test_guard_sees_an_unreferenced_function(tmp_path):
    # negative control: a public function that nothing calls, which calls
    # itself
    copy = tmp_path / "geodlab"
    shutil.copytree(PACKAGE, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(copy / "graphs.py", "a") as fh:
        fh.write("\n\ndef orphan(n):\n    return orphan(n - 1) if n else 0\n")
    assert [q for q in unreferenced(copy) if q not in ALLOWED] == [
        "graphs.orphan"]
