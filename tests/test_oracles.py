"""The oracles of oracles.py stay independent of the code they check: from
geodlab they import polynomial arithmetic and the graph loader, nothing
else, and so no function under check and no private helper."""

import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")

# F_q[Y] arithmetic for the tree and Farey oracles, and the loader that
# builds the two-vertex test graph
PERMITTED = {("geodlab.ffield", "FqPoly"), ("geodlab.ffield", "RatFunc"),
             ("geodlab.ffield", "poly_range"),
             ("geodlab.graphs", "load_validate")}


def _forbidden_imports(path):
    """(module, name) of each import from geodlab in the file that is not
    permitted; name is None for `import geodlab...`, and a relative import
    counts as one from geodlab."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out += [(a.name, None) for a in node.names
                    if a.name.split(".")[0] == "geodlab"]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if node.level or module.split(".")[0] == "geodlab":
                out += [(module, a.name) for a in node.names
                        if (module, a.name) not in PERMITTED]
    return out


def test_oracles_import_only_permitted_names():
    assert _forbidden_imports(ORACLES) == []


def test_import_guard_sees_a_private_helper(tmp_path):
    copy = tmp_path / "oracles.py"
    copy.write_text("from geodlab.counting import _boundary\n"
                    + ORACLES.read_text())
    assert _forbidden_imports(copy) == [("geodlab.counting", "_boundary")]
