"""Struct-of-arrays batch simulation backend (``backend="vector"``).

The vector backend keeps all flit, VC, credit, link and reply-buffer
state in preallocated numpy integer arrays and advances the whole NoC in
batch per-cycle array operations, replacing per-object ``step()``
dispatch on the router/NIC hot path.  It computes the object kernel's
two-phase (decide-then-commit) step (``NocFabric.step``) and is pinned
bit-identical to it by ``tests/test_vector_kernel.py``.  See DESIGN.md
§12 for the memory layout and the batch step order.
"""

from repro.sim.vector.fabric import VectorFabric

__all__ = ["VectorFabric"]
