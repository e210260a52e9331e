"""Output checks.  Each returns None when the output is right, else a
one-line reason; a failed check counts the operations it covers as
failed."""

from __future__ import annotations

import hashlib
import json
from typing import Optional, Sequence


def digest(payload) -> str:
    """Content hash of a JSON-serialisable simulated result."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def same_digest(got: str, reference: str) -> Optional[str]:
    """A repetition must reproduce the run's first result exactly."""
    if got != reference:
        return f"digest {got} differs from the first repetition's {reference}"
    return None


def dr_beats_baseline(base_ipc: float, dr_ipc: float) -> Optional[str]:
    """Delegated Replies must raise GPU IPC on the clogged design point."""
    if not dr_ipc > base_ipc:
        return f"DR gpu_ipc {dr_ipc:.4f} does not beat baseline {base_ipc:.4f}"
    return None


def rows_equal(cold: Sequence, warm: Sequence) -> Optional[str]:
    """A figure regenerated from the result cache must equal the cold one."""
    if list(cold) != list(warm):
        return "warm figure rows differ from the cold rows"
    return None


def nothing_lost(lost: int, leftover: int) -> Optional[str]:
    """After quiesce, no transaction may be lost or stuck."""
    if lost or leftover:
        return f"{lost} transaction(s) lost, {leftover} stuck after quiesce"
    return None


def packets_conserved(
    accepted: int, delivered: int, in_flight_flits: int,
    queued: int = 0,
) -> Optional[str]:
    """Every packet a NIC accepted is delivered once the fabric drains."""
    if accepted != delivered or in_flight_flits or queued:
        return (f"{accepted} packets accepted, {delivered} delivered, "
                f"{in_flight_flits} flits in flight, {queued} queued")
    return None
