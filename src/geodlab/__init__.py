"""geodlab: a desk-scale laboratory for non-backtracking geodesic counting
on graphs, thermodynamic formalism on edge shifts, random walks and
harmonic measures, and the arithmetic of F_q(Y) on the Bruhat-Tits tree.

The seven submodules below are registered lazily: each is in sys.modules
and an attribute of the package at once, and its code runs on the first
read of one of its attributes.  So a CLI verb executes only the modules it
uses (see the README), and ``from geodlab.graphs import X`` or
``geodlab.graphs.X`` works as with an eager import.  ``errors`` and
``seeding`` are small and load eagerly with ``geodlab.cli``.
"""

import importlib.util
import sys

__version__ = "0.1.0"


def _register(name):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    globals()[name] = module


for _name in ("bt", "counting", "ffield", "graphs", "library", "shift",
              "walks"):
    _register(_name)
del _name
