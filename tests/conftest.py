import sys

import pytest

from spinberry import hamiltonian


@pytest.fixture
def spectra_calls(monkeypatch):
    """The (block size, lambda argument) of every parity-block solve
    (``hamiltonian._block_spectra``) made while the test runs, counted on
    each spinberry module that holds its own reference to it: a labelled
    spectrum of both blocks counts two, a read of one level one."""
    calls = []
    solve = hamiltonian._block_spectra

    def counted(rep, m, lams):
        sel, w, v = solve(rep, m, lams)
        calls.append((len(sel), lams))
        return sel, w, v

    for name, module in list(sys.modules.items()):
        if name.startswith("spinberry") and getattr(module, "_block_spectra", None) is solve:
            monkeypatch.setattr(module, "_block_spectra", counted)
    return calls
