import sys

import pytest

from geodlab import ffield


@pytest.fixture
def sieve_forgets_y(monkeypatch):
    """A prime sieve that never marks with the prime Y (index q): the
    mutation the negative controls of phi and the Farey unit sieve inject.
    The multiples of Y lose a factor, and its powers pass for primes."""
    mark = ffield.PrimeSieve._mark

    def forgetful(self, indices, primes, k):
        kept = [(i, p) for i, p in zip(indices, primes) if p != self.q]
        mark(self, [i for i, _ in kept], [p for _, p in kept], k)

    monkeypatch.setattr(ffield.PrimeSieve, "_mark", forgetful)


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
