"""True-conflict removal for concurrent streams (§2.2).

"As we consume these traces, we remove any true conflicts so we can focus
on the aliasing-induced conflicts found in real address streams." — a
true conflict is two threads touching the *same block* with at least one
write. We remove them by dropping, from every stream, accesses to blocks
that would truly conflict across the stream set; what remains can only
conflict through hash aliasing.
"""

from __future__ import annotations

import numpy as np

from repro.traces.events import AccessTrace, ThreadedTrace

__all__ = ["remove_true_conflicts", "shared_blocks"]


def shared_blocks(trace: ThreadedTrace) -> np.ndarray:
    """Blocks touched by more than one thread, regardless of mode."""
    if trace.n_threads == 0:
        return np.empty(0, dtype=np.int64)
    per_thread = [np.unique(thread.blocks) for thread in trace]
    blocks, touchers = np.unique(np.concatenate(per_thread), return_counts=True)
    return blocks[touchers >= 2]


def _truly_conflicting_blocks(trace: ThreadedTrace) -> np.ndarray:
    """Blocks where a cross-thread true conflict (≥1 write) exists."""
    # A block truly conflicts iff it is touched by >= 2 threads and at
    # least one of those threads writes it.
    shared = shared_blocks(trace)
    if len(shared) == 0:
        return shared
    written = np.concatenate([thread.write_blocks for thread in trace])
    return shared[np.isin(shared, written)]


def remove_true_conflicts(trace: ThreadedTrace) -> ThreadedTrace:
    """Drop every access to a truly conflicting block from all streams.

    The returned streams are guaranteed free of cross-thread same-block
    conflicts: any conflict observed when replaying them against a
    tagless ownership table is alias-induced (false) by construction.
    Instruction indices of surviving accesses are preserved.
    """
    conflicting = _truly_conflicting_blocks(trace)
    if len(conflicting) == 0:
        return trace
    conflict_set = conflicting  # sorted array for searchsorted membership
    cleaned: list[AccessTrace] = []
    for thread in trace:
        pos = np.searchsorted(conflict_set, thread.blocks)
        pos = np.clip(pos, 0, len(conflict_set) - 1)
        is_conflicting = conflict_set[pos] == thread.blocks
        keep = ~is_conflicting
        cleaned.append(AccessTrace(thread.blocks[keep], thread.is_write[keep], thread.instr[keep]))
    return ThreadedTrace(cleaned)
