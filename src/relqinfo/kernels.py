"""The batched little-group kernel under the name every call site uses.

wigner_su2_batch is relqinfo.lorentz.wigner_su2_batch, the half-rapidity
(gyrovector) form in NumPy; there is no other backend.
"""
from __future__ import annotations

from .lorentz import wigner_su2_batch

__all__ = ["wigner_su2_batch", "backend_name"]


def backend_name() -> str:
    """Which kernel implementation is active: always 'numpy'."""
    return "numpy"
