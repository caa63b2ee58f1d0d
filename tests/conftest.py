import sys

import pytest

from spinberry import hamiltonian


@pytest.fixture
def spectra_calls(monkeypatch):
    """The lambda arguments of every labelled-spectrum solve
    (``hamiltonian._spectra``) made while the test runs, counted on each
    spinberry module that holds its own reference to it."""
    calls = []
    solve = hamiltonian._spectra

    def counted(rep, lams):
        calls.append(lams)
        return solve(rep, lams)

    for name, module in list(sys.modules.items()):
        if name.startswith("spinberry") and getattr(module, "_spectra", None) is solve:
            monkeypatch.setattr(module, "_spectra", counted)
    return calls
