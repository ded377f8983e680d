import sys

import pytest

from geodlab import ffield
from geodlab.graphs import GraphOfGroups


@pytest.fixture(autouse=True)
def default_budget(monkeypatch):
    """Every test starts with GEODLAB_BUDGET unset, so a value in the
    caller's shell moves no verdict; a test that needs one sets it."""
    monkeypatch.delenv("GEODLAB_BUDGET", raising=False)


@pytest.fixture
def sieve_forgets_y(monkeypatch):
    """A prime sieve that never marks with the prime Y (index q): the
    mutation the negative controls of phi and the Farey unit count inject.
    The multiples of Y lose a factor, and its powers pass for primes."""
    mark = ffield.PrimeSieve._mark

    def forgetful(self, p, k):
        if p != self.q:
            mark(self, p, k)

    monkeypatch.setattr(ffield.PrimeSieve, "_mark", forgetful)


@pytest.fixture
def quotient_only_rule(monkeypatch):
    """An edge step that ignores the group orders: f follows e in one way
    when o(f) = t(e) and f is not the reverse of e.  The first mutation the
    negative controls of the graph-of-groups checks inject."""

    def quotient_only(self):
        return [[(self.edge_index[f], 1)
                 for f in self.out_edges(self.edges[eid].terminus)
                 if f != self.edges[eid].reverse] for eid in self.edge_ids]

    monkeypatch.setattr(GraphOfGroups, "nb_successors", quotient_only)


@pytest.fixture
def merged_repeats_rule(monkeypatch):
    """An edge step whose pairs all have m set to 1, however many ways
    lead to each successor: the second mutation of those negative
    controls."""
    rule = GraphOfGroups.nb_successors
    monkeypatch.setattr(GraphOfGroups, "nb_successors", lambda self: [
        [(f, 1) for f, _ in row] for row in rule(self)])


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance PASS/FAIL lines after the run, outside capture."""
    lines = []
    for name, mod in list(sys.modules.items()):
        if name.rsplit(".", 1)[-1] == "test_acceptance":
            lines = getattr(mod, "RESULT_LINES", [])
            break
    if lines:
        terminalreporter.write_sep("-", "acceptance summary")
        for line in lines:
            terminalreporter.write_line(line)
