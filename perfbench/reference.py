"""Reference kernels: fixed pieces of numpy and Python work that use no
``tmes`` code, timed around every item of every pass.

The shared host this benchmark runs on changes speed by up to a quarter
within minutes.  ``run.py`` therefore times each call in units of a
kernel's median time over the runs of that kernel nearest to it, which
cancels the drift; the wall seconds are kept in the run record.  On a
two-vCPU VM, ten seeds of ``verdict`` spread 0.095 in wall seconds and 0.034
in these units (quartile distance over median).

The drift is not the same for all code: while small numpy calls got 60%
faster, an SVD of a 1024 x 1024 matrix did not.  So a call dominated by one
LAPACK routine on a matrix of at least DENSE_DIM rows, too large for the
cache, is timed against that routine at DENSE_DIM rows; every other call is
timed against ``mixed``.  Against ``mixed`` the 1024-row SVD of
``operator_family(5)`` spread 0.11 over 90 s of calls, against ``svd`` 0.04.
"""

from __future__ import annotations

import numpy as np

SMALL_LOOPS = 120
EIG_DIM = 256
DENSE_DIM = 512

_SMALL = np.array([[1.0, 1.0j], [0.5, -1.0]], dtype=complex) / 1.5
_SMALL4 = np.kron(_SMALL, _SMALL.conj())


def _dense(dim: int) -> np.ndarray:
    grid = np.arange(dim * dim).reshape(dim, dim)
    return (grid % 7 + 1j * (grid % 5)) / 64.0 + np.eye(dim)


_HERM = _dense(EIG_DIM) + _dense(EIG_DIM).conj().T
_DENSE = _dense(DENSE_DIM)
_DENSE_HERM = _DENSE + _DENSE.conj().T


def mixed() -> float:
    """About 15 ms: an interpreter-bound loop of small ``kron`` and
    ``matmul`` calls, like the Pauli and teleport code, and one Hermitian
    ``eigvalsh`` too large for the L2 cache."""
    acc = 0.0
    for k in range(SMALL_LOOPS):
        m = np.kron(_SMALL4, _SMALL)
        acc += float(np.trace(m @ m.conj().T).real)
        acc += sum({i: i * k for i in range(16)}.values()) * 1e-9
    acc += float(np.linalg.eigvalsh(_HERM).sum())
    return acc


def svd() -> float:
    """Singular values of a dense complex DENSE_DIM x DENSE_DIM matrix."""
    return float(np.linalg.svd(_DENSE, compute_uv=False).sum())


def eigvalsh() -> float:
    """Eigenvalues of a dense Hermitian DENSE_DIM x DENSE_DIM matrix."""
    return float(np.linalg.eigvalsh(_DENSE_HERM).sum())


KERNELS = {"mixed": mixed, "svd": svd, "eigvalsh": eigvalsh}
