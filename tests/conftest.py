import sys

import numpy as np
import pytest

from spinberry import hamiltonian


def _eigh_block_spectra(rep, m, lams):
    """``hamiltonian._block_spectra`` by one stacked ``eigh`` for every block
    size, with the same sign rule: the reference of the closed-form
    two-state blocks."""
    sel = hamiltonian._block(rep, m)
    sz, sxsq = hamiltonian._block_operators(rep, sel)
    w, v = np.linalg.eigh(sz + np.asarray(lams)[..., None, None] * sxsq)
    parent = np.diagonal(v[..., ::-1, :], axis1=-2, axis2=-1)
    v *= np.where(parent < -1e-12, -1.0, 1.0)[..., None, :]
    return sel, w, v


def _recorded_block_spectra(monkeypatch, solve):
    """Replace ``hamiltonian._block_spectra`` by ``solve`` on each spinberry
    module that holds its own reference to it, recording the (block size,
    lambda argument) of every call."""
    calls, original = [], hamiltonian._block_spectra

    def recorded(rep, m, lams):
        sel, w, v = solve(rep, m, lams)
        calls.append((len(sel), lams))
        return sel, w, v

    for name, module in list(sys.modules.items()):
        if name.startswith("spinberry") and getattr(module, "_block_spectra", None) is original:
            monkeypatch.setattr(module, "_block_spectra", recorded)
    return calls


@pytest.fixture
def spectra_calls(monkeypatch):
    """The (block size, lambda argument) of every parity-block solve
    (``hamiltonian._block_spectra``) made while the test runs: a labelled
    spectrum of both blocks counts two, a read of one level one."""
    return _recorded_block_spectra(monkeypatch, hamiltonian._block_spectra)

