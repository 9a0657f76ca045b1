"""Optimized closed-system engine — byte-identical to the reference.

:func:`simulate_closed_system_fast` reproduces the exact protocol of
:func:`repro.sim.closed_system.simulate_closed_system` (the §4 workhorse
behind Figures 5–6) but with an inner loop engineered for the CPython
interpreter rather than written against numpy arrays:

* **Same RNG stream, same order.**  The engine draws from the very same
  named stream (``stream_rng(seed, "closed-system", ...)``) with the
  very same calls in the very same order — one scalar stagger draw per
  thread at start-up, then one batched ``rng.integers(0, n, size=F)``
  draw per ``begin()`` in tid order per tick.  Identical draws plus
  identical transition rules give **byte-identical**
  :class:`~repro.sim.closed_system.ClosedSystemResult` fields
  (``conflicts``, ``committed``, ``mean_occupancy``,
  ``expected_occupancy``) for every config; the differential suite in
  ``tests/sim/test_closed_fast.py`` enforces that on every PR.
* **One packed table word per entry.**  The reference keeps three numpy
  arrays (``mode``/``writer``/``readers``) and boxes a fresh numpy
  scalar on every access — the dominant cost of the interpreted loop.
  Here the whole entry state is one plain int in one Python list:
  ``0`` = free, ``-(tid+1)`` = write-held by ``tid``, positive =
  reader bitmask.  The hot path does a single list load and a single
  list store, on unboxed ints.
* **One scheduler generator per thread.**  The reference re-reads every
  piece of per-thread progress (``entries``/``pos``/``held``/``wait``)
  out of heap objects on every access.  Here each thread is a generator
  that yields once per consumed tick, so its cursor, entry list, reader
  bit and claim table are *generator locals* — ``LOAD_FAST``
  instead of attribute or list traffic — and the stagger wait burns down
  in a prologue loop that costs nothing once it is over.
* **Chunk-prefetched entry draws, unboxed.**  numpy's bounded-integer
  sampler is *stream-concatenable*: one ``integers(0, n, size=a+b)``
  call yields exactly the values of successive ``size=a`` and ``size=b``
  calls (each output consumes raw generator words sequentially until
  accepted, with no cross-call buffering for ``int64``; asserted by
  ``tests/sim/test_closed_fast.py``).  Since every ``begin()`` draw has
  the same shape, the global draw sequence is just consecutive
  ``F``-sized windows of one long stream — so the engine prefetches
  thousands of values per ``Generator`` call, converts once via
  ``.tolist()``, and hands each transaction a list slice.  Per-position
  claim words (``mark`` for writes, ``bit`` for reads) are precomputed
  so the free-entry fast path is a single tuple index.
* **No held list.**  Every access before the cursor succeeded, so an
  abort at ``p`` releases ``ent[:p]`` and a commit ``ent``: O(F), with no
  per-acquire bookkeeping or membership scans.  A duplicate entry's
  second release is a no-op (it reads free, or without the reader bit).

Select engines by name through :mod:`repro.sim.engines`; this module
only holds the implementation.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.sim.closed_system import ClosedSystemConfig, ClosedSystemResult
from repro.util.rng import stream_rng

__all__ = ["simulate_closed_system_fast"]


def simulate_closed_system_fast(cfg: ClosedSystemConfig) -> ClosedSystemResult:
    """Run one closed-system experiment on the optimized engine.

    Byte-identical to
    :func:`repro.sim.closed_system.simulate_closed_system` for every
    config (same RNG stream consumed in the same order, same transition
    rules), at several times the speed — see
    ``benchmarks/test_closed_engine_speedup.py``.
    """
    rng = stream_rng(
        cfg.seed,
        "closed-system",
        n=cfg.n_entries,
        c=cfg.concurrency,
        w=cfg.write_footprint,
        alpha=cfg.alpha,
    )
    n, c, f = cfg.n_entries, cfg.concurrency, cfg.footprint

    # Packed per-entry state: 0 free, -(tid+1) write-held, >0 reader mask.
    state = [0] * n

    # The fixed access pattern: alpha reads then one write, W times.
    pattern = [False] * f
    for i in range(cfg.alpha, f, cfg.alpha + 1):
        pattern[i] = True
    is_write = tuple(pattern)

    # Stagger draws are consumed eagerly, before any entry draw, exactly
    # as the reference constructs its thread list.
    waits = [int(rng.integers(0, f)) for _ in range(c)]

    occupied = 0
    occupancy_sum = 0
    conflicts = 0
    committed = 0

    draw = rng.integers
    int64 = np.int64

    # Prefetch buffer for entry draws.  Every begin() consumes the next
    # F values of one logical stream (see the module docstring), so the
    # buffer refills in large chunks and transactions take list slices.
    buf: list[int] = []
    bpos = 0
    chunk = max(f * 128, 4096)

    def _take() -> list[int]:
        """The next F entry draws, refilling the prefetch buffer."""
        nonlocal buf, bpos
        b = bpos
        end = b + f
        if end > len(buf):
            need = end - len(buf)
            buf = buf[b:] + draw(0, n, size=max(chunk, need), dtype=int64).tolist()
            b = 0
            end = f
        bpos = end
        return buf[b:end]

    def _release(held: list[int], bit: int, mark: int) -> None:
        """Drop the permissions a thread holds on ``held`` (commit or abort).

        ``held`` may repeat an entry: its second release is a no-op.
        """
        nonlocal occupied
        st = state
        for h in held:
            hs = st[h]
            if hs == mark:
                st[h] = 0
                occupied -= 1
            elif hs > 0 and hs & bit:
                hs &= ~bit
                st[h] = hs
                if hs == 0:
                    occupied -= 1

    def _thread(tid: int, wait: int) -> Iterator[None]:
        """One thread's whole schedule; each ``yield`` ends one tick.

        All per-thread state (cursor, entries, bit masks) are
        locals of this generator, which is what keeps the per-access
        bytecode count minimal.
        """
        nonlocal occupied, conflicts, committed
        st = state
        isw = is_write
        bit = 1 << tid
        mark = -(tid + 1)
        # Claim word per position: what a free entry's state becomes.
        claim = tuple(mark if w else bit for w in isw)
        for _ in range(wait):
            yield
        take = _take
        while True:
            # begin(): consume the next F values of the draw stream —
            # the same values the reference's per-transaction
            # ``integers(0, n, size=F)`` call would produce.
            ent = take()
            p = 0
            while True:
                e = ent[p]
                s = st[e]
                if s == 0:
                    # Free entry: claim it (write or read mode).
                    st[e] = claim[p]
                    occupied += 1
                elif s < 0:
                    if s != mark:
                        # Write-held by someone else: abort, restart
                        # next tick (the table-depopulation effect).
                        conflicts += 1
                        _release(ent[:p], bit, mark)
                        yield
                        break
                elif isw[p]:
                    if s & ~bit:
                        # Read-held by someone else: a write is refused.
                        conflicts += 1
                        _release(ent[:p], bit, mark)
                        yield
                        break
                    # Upgrade own sole read.
                    st[e] = mark
                elif not (s & bit):
                    st[e] = s | bit
                p += 1
                if p == f:
                    # Commit: permissions drop in the same tick.
                    _release(ent, bit, mark)
                    committed += 1
                    yield
                    break
                yield

    # Resuming each generator once, in tid order, is one scheduler tick.
    steps = [_thread(tid, waits[tid]).__next__ for tid in range(c)]
    horizon = cfg.horizon_ticks
    for _tick in range(horizon):
        for step in steps:
            step()
        occupancy_sum += occupied

    mean_occupancy = occupancy_sum / horizon if horizon else 0.0
    return ClosedSystemResult(
        config=cfg,
        conflicts=conflicts,
        committed=committed,
        mean_occupancy=mean_occupancy,
        expected_occupancy=c * f / 2.0,
    )
