"""Engine registry and selection, keyed by simulation kind.

Each *kind* of simulation ships interchangeable engines:

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
  vectorized, so the ``"fast"`` entry aliases it — the kind exists so
  every figure's sweep resolves through one registry.

Every fast engine consumes the same RNG stream in the same order as its
reference and returns **byte-identical** result fields; the differential
suites (``tests/sim/test_closed_fast.py``, ``tests/sim/test_trace_fast.py``,
``tests/sim/test_overflow_fast.py`` — all built on
``tests/sim/engine_contract.py``) enforce exact equality on every PR,
and the speedup benchmarks enforce the perf bar.  The per-kind default
is therefore ``"fast"`` — callers cannot observe which engine ran,
except on the clock.

Every surface that runs points (CLI subcommands, the sweep-kind table in
:mod:`repro.sim.catalog`, and — since the engine name is a JSON-safe
string riding in point kwargs — the cluster wire format) threads an
``engine`` parameter down to the ``simulate_*`` dispatchers below.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.htm.cache import CacheGeometry
from repro.sim.closed_fast import simulate_closed_system_fast
from repro.sim.closed_system import (
    ClosedSystemConfig,
    ClosedSystemResult,
    simulate_closed_system,
)
from repro.sim.open_system import (
    OpenSystemConfig,
    OpenSystemResult,
    simulate_open_system,
)
from repro.sim.overflow import simulate_htm_overflow
from repro.sim.overflow_fast import simulate_htm_overflow_fast
from repro.sim.trace_driven import (
    TraceAliasConfig,
    TraceAliasResult,
    simulate_trace_aliasing,
)
from repro.sim.trace_fast import simulate_trace_aliasing_fast
from repro.traces.events import AccessTrace, ThreadedTrace

__all__ = [
    "CLOSED_ENGINES",
    "DEFAULT_CLOSED_ENGINE",
    "DEFAULT_ENGINES",
    "DEFAULT_OPEN_ENGINE",
    "DEFAULT_OVERFLOW_ENGINE",
    "DEFAULT_TRACE_ENGINE",
    "ENGINES",
    "OPEN_ENGINES",
    "OVERFLOW_ENGINES",
    "TRACE_ENGINES",
    "available_engines",
    "get_engine",
    "simulate_closed",
    "simulate_open",
    "simulate_overflow",
    "simulate_trace",
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
#: already vectorized, so "fast" aliases it: selection costs nothing and
#: every kind exposes the same two names.
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

#: Human-readable kind names, used in help/error text.
_KIND_DISPLAY = {
    "closed": "closed-system",
    "open": "open-system",
    "overflow": "overflow",
    "trace": "trace-driven",
}

#: Per-kind engine used when callers do not ask for one.  "fast" is safe
#: as the default because the differential suites prove byte-identity.
DEFAULT_ENGINES: dict[str, str] = {
    "closed": "fast",
    "open": "fast",
    "overflow": "fast",
    "trace": "fast",
}

DEFAULT_CLOSED_ENGINE = DEFAULT_ENGINES["closed"]
DEFAULT_OPEN_ENGINE = DEFAULT_ENGINES["open"]
DEFAULT_OVERFLOW_ENGINE = DEFAULT_ENGINES["overflow"]
DEFAULT_TRACE_ENGINE = DEFAULT_ENGINES["trace"]


def _check_kind(kind: str) -> None:
    if kind not in ENGINES:
        known = ", ".join(sorted(ENGINES))
        raise ValueError(f"unknown engine kind {kind!r}; expected one of: {known}")


def available_engines(kind: str) -> tuple[str, ...]:
    """The selectable engine names of a kind, sorted for stable text."""
    _check_kind(kind)
    return tuple(sorted(ENGINES[kind]))


def get_engine(kind: str, name: Optional[str] = None) -> Callable:
    """Resolve an engine name (``None`` means the kind's default).

    Raises :class:`ValueError` for unknown kinds or names, listing the
    known ones — CLI and service surfaces forward that message verbatim.
    """
    _check_kind(kind)
    if name is None:
        name = DEFAULT_ENGINES[kind]
    try:
        return ENGINES[kind][name]
    except KeyError:
        known = ", ".join(available_engines(kind))
        raise ValueError(
            f"unknown {_KIND_DISPLAY[kind]} engine {name!r}; expected one of: {known}"
        ) from None


def simulate_closed(
    cfg: ClosedSystemConfig, *, engine: Optional[str] = None
) -> ClosedSystemResult:
    """Run one closed-system experiment on the named engine.

    ``engine=None`` selects the kind's default.  Whatever the choice,
    the result is byte-identical — engines differ only in speed.
    """
    return get_engine("closed", engine)(cfg)


def simulate_trace(
    trace: ThreadedTrace,
    cfg: TraceAliasConfig,
    *,
    engine: Optional[str] = None,
    hash_fn=None,
    batch: int = 1000,
) -> TraceAliasResult:
    """Run one Figure 2 trace-driven data point on the named engine.

    ``engine=None`` selects the kind's default.  Whatever the choice,
    the result is byte-identical — engines differ only in speed.
    """
    return get_engine("trace", engine)(trace, cfg, hash_fn=hash_fn, batch=batch)


def simulate_overflow(
    trace: AccessTrace,
    geometry: Optional[CacheGeometry] = None,
    *,
    victim_entries: int = 0,
    engine: Optional[str] = None,
):
    """Run one Figure 3 trace through HTM overflow detection.

    ``engine=None`` selects the kind's default.  Whatever the choice,
    the result is byte-identical — engines differ only in speed.
    """
    return get_engine("overflow", engine)(
        trace, geometry, victim_entries=victim_entries
    )


def simulate_open(
    cfg: OpenSystemConfig, *, engine: Optional[str] = None
) -> OpenSystemResult:
    """Run one open-system experiment on the named engine.

    Both entries currently alias the vectorized reference, so the flag
    exists for surface uniformity; results are identical by definition.
    """
    return get_engine("open", engine)(cfg)
