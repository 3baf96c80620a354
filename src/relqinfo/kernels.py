"""Selects the batched little-group kernel at import time.

Prefers the compiled Cython extension when it was built; otherwise the
NumPy kernel relqinfo.lorentz.wigner_su2_batch. Both expose the same
wigner_su2_batch signature and conventions, so callers never branch.
"""
from __future__ import annotations

try:
    from ._wigner_cy import wigner_su2_batch

    BACKEND = "compiled"
except ImportError:  # extension not built
    from .lorentz import wigner_su2_batch

    BACKEND = "numpy"


def backend_name() -> str:
    """Which kernel implementation is active: 'compiled' or 'numpy'."""
    return BACKEND
