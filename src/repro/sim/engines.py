"""Engine registry, keyed by simulation kind.

Each *kind* of simulation ships two interchangeable engines:

* ``kind="closed"`` — the §4 closed-system protocol (Figures 5–6):
  ``"reference"`` is :func:`repro.sim.closed_system.simulate_closed_system`,
  the straightforward transcription of the paper's protocol; ``"fast"``
  is :func:`repro.sim.closed_fast.simulate_closed_system_fast`.
* ``kind="trace"`` — the §2.2 trace-driven aliasing study (Figure 2):
  ``"reference"`` is
  :func:`repro.sim.trace_driven.simulate_trace_aliasing`; ``"fast"`` is
  :func:`repro.sim.trace_fast.simulate_trace_aliasing_fast`.
* ``kind="overflow"`` — the §2.3 HTM overflow characterization
  (Figure 3): ``"reference"`` is
  :func:`repro.sim.overflow.simulate_htm_overflow`, a per-access replay
  through :class:`repro.htm.htm.HTMContext`; ``"fast"`` is
  :func:`repro.sim.overflow_fast.simulate_htm_overflow_fast`.
* ``kind="open"`` — the §4 open-system set (Figures 4/6): the reference
  :func:`repro.sim.open_system.simulate_open_system` is already fully
  vectorized, so the ``"fast"`` entry aliases it.

Every fast engine consumes the same RNG stream in the same order as its
reference and returns **byte-identical** result fields, so the fast
engine always runs: every sweep kind, CLI subcommand, service request
and cluster worker resolves ``get_engine(kind)`` at call time, and no
surface takes an engine name.  The reference engines are oracles: the
differential suites (``tests/sim/test_closed_fast.py``,
``tests/sim/test_trace_fast.py``, ``tests/sim/test_overflow_fast.py`` —
all built on ``tests/sim/engine_contract.py``) compare them with the
fast engines for exact equality, and ``benchmarks/*_engine_speedup.py``
time the pair.  Callers resolve kernels through :data:`ENGINES` on every
call rather than binding them at import, so a wrapper installed in the
registry (a profiler, say) sees every call.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.closed_fast import simulate_closed_system_fast
from repro.sim.closed_system import ClosedSystemConfig, ClosedSystemResult, simulate_closed_system
from repro.sim.open_system import OpenSystemConfig, OpenSystemResult, simulate_open_system
from repro.sim.overflow import simulate_htm_overflow
from repro.sim.overflow_fast import simulate_htm_overflow_fast
from repro.sim.trace_driven import TraceAliasResult, simulate_trace_aliasing
from repro.sim.trace_fast import simulate_trace_aliasing_fast

__all__ = [
    "CLOSED_ENGINES",
    "ENGINES",
    "OPEN_ENGINES",
    "OVERFLOW_ENGINES",
    "TRACE_ENGINES",
    "available_engines",
    "get_engine",
]

#: Closed-system engine name -> simulator callable.
CLOSED_ENGINES: dict[str, Callable[[ClosedSystemConfig], ClosedSystemResult]] = {
    "reference": simulate_closed_system,
    "fast": simulate_closed_system_fast,
}

#: Trace-driven engine name -> simulator callable.
TRACE_ENGINES: dict[str, Callable[..., TraceAliasResult]] = {
    "reference": simulate_trace_aliasing,
    "fast": simulate_trace_aliasing_fast,
}

#: HTM-overflow engine name -> simulator callable.
OVERFLOW_ENGINES: dict[str, Callable[..., object]] = {
    "reference": simulate_htm_overflow,
    "fast": simulate_htm_overflow_fast,
}

#: Open-system engine name -> simulator callable.  The reference is
#: already vectorized, so "fast" aliases it and every kind exposes the
#: same two names.
OPEN_ENGINES: dict[str, Callable[[OpenSystemConfig], OpenSystemResult]] = {
    "reference": simulate_open_system,
    "fast": simulate_open_system,
}

#: Kind -> engine registry for that kind.
ENGINES: dict[str, dict[str, Callable]] = {
    "closed": CLOSED_ENGINES,
    "open": OPEN_ENGINES,
    "overflow": OVERFLOW_ENGINES,
    "trace": TRACE_ENGINES,
}

#: Human-readable kind names, used in error text.
_KIND_DISPLAY = {
    "closed": "closed-system",
    "open": "open-system",
    "overflow": "overflow",
    "trace": "trace-driven",
}


def _check_kind(kind: str) -> None:
    if kind not in ENGINES:
        known = ", ".join(sorted(ENGINES))
        raise ValueError(f"unknown engine kind {kind!r}; expected one of: {known}")


def available_engines(kind: str) -> tuple[str, ...]:
    """The engine names of a kind, sorted for stable text."""
    _check_kind(kind)
    return tuple(sorted(ENGINES[kind]))


def get_engine(kind: str, name: Optional[str] = None) -> Callable:
    """Resolve an engine by name; ``None`` means ``"fast"``.

    Raises :class:`ValueError` for unknown kinds or names, listing the
    known ones.
    """
    _check_kind(kind)
    if name is None:
        name = "fast"
    try:
        return ENGINES[kind][name]
    except KeyError:
        known = ", ".join(available_engines(kind))
        raise ValueError(
            f"unknown {_KIND_DISPLAY[kind]} engine {name!r}; expected one of: {known}"
        ) from None
