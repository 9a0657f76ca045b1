"""Reusable differential-contract harness for engine kinds.

Every engine kind in :mod:`repro.sim.engines` ships a ``"reference"``
and a ``"fast"`` entry whose contract is *byte-identical* results —
same RNG stream consumed in the same order (or none at all), same
fields, same error messages.  The per-kind differential suites
(``test_closed_fast.py``, ``test_trace_fast.py``,
``test_overflow_fast.py``) all need the same machinery to enforce it:

* :class:`EngineContract` — resolves both engines from the registry and
  asserts exact per-field equality (``==``, never ``approx``) or
  identical error type + message;
* :func:`registry_test_class` — a test-class factory pinning the
  registry shape every kind must expose (two entries, ``fast`` default,
  lookup by name, unknown names rejected with the known names listed).

This module is a helper, not a test module (no ``test_`` prefix); the
suites instantiate it with their kind's run adapter and field list.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional

import pytest

from repro.sim.engines import DEFAULT_ENGINES, ENGINES, available_engines, get_engine

__all__ = ["EngineContract", "assert_frame_identity", "registry_test_class"]


def assert_frame_identity(kind_name: str, raw_params: Mapping[str, Any],
                          expected_digest: str, seed: int = 7,
                          jobs: Optional[int] = None) -> dict:
    """Assert a kind's frame-backed result matches its pinned digest.

    Runs one sweep kind twice — once into the frame :meth:`SweepKind.run`
    builds itself, once into a caller-held
    :class:`repro.sim.frame.SweepFrame` — and compares each assembled
    result's canonical-JSON SHA-256 with ``expected_digest``, a pin
    recorded from the list-of-dicts path before the frame became the
    only result path.  Comparing serialized bytes means ``8`` vs ``8.0``
    or any other type drift through the f8/i8 columns fails loudly
    rather than slipping past ``==``.  Returns the assembled result for
    further assertions.
    """
    from repro.sim.catalog import SWEEP_KINDS
    from repro.sim.frame import FrameBackedSweepResult

    from tests.sim.test_result_golden import result_digest

    kind = SWEEP_KINDS[kind_name]
    params = kind.validate(raw_params)
    frame = kind.make_frame(params)
    assert frame is not None, f"kind {kind_name!r} declares no frame schema"

    own_frame = kind.execute(params, seed, jobs)
    held_frame = kind.execute(params, seed, jobs, frame=frame)
    assert frame.complete, f"{kind_name}: frame left incomplete by execute()"

    for result in (own_frame, held_frame):
        assert result_digest(result) == expected_digest, (
            f"{kind_name}: frame-backed result diverges from the pinned digest"
        )

    # The facade must also replay identical rows (points and outcomes).
    facade = FrameBackedSweepResult(frame)
    grid = kind.grid(params)
    assert json.dumps(facade.points, sort_keys=True) == json.dumps(
        [dict(p) for p in grid], sort_keys=True
    )
    return held_frame


@dataclass(frozen=True)
class EngineContract:
    """The byte-identity contract between one kind's engine pair.

    Attributes
    ----------
    kind:
        Registry kind (``"closed"``, ``"trace"``, ``"overflow"``,
        ``"open"``).
    fields:
        Result attributes compared field by field — a per-field assert
        names the first diverging field, which beats a single opaque
        ``!=`` on the whole result.
    run:
        Adapter ``(engine_callable, case, **kwargs) -> result`` mapping
        a test case onto one engine invocation.  Extra kwargs let a
        suite drive per-engine knobs that must not affect results
        (e.g. batch sizes).
    """

    kind: str
    fields: tuple[str, ...]
    run: Callable[..., Any]

    @property
    def reference(self) -> Callable[..., Any]:
        return ENGINES[self.kind]["reference"]

    @property
    def fast(self) -> Callable[..., Any]:
        return ENGINES[self.kind]["fast"]

    def assert_identical(self, case: Any, *, ref_kwargs: Optional[dict] = None,
                         fast_kwargs: Optional[dict] = None) -> Any:
        """Both engines on one case; exact equality on every field."""
        ref = self.run(self.reference, case, **(ref_kwargs or {}))
        fast = self.run(self.fast, case, **(fast_kwargs or {}))
        if ref is None or fast is None:
            # Kinds with an "it fit" outcome (overflow) must agree on it.
            assert ref is None and fast is None, (
                f"{self.kind}: one engine returned None: ref={ref!r} fast={fast!r}"
            )
            return ref
        for field in self.fields:
            ref_value = getattr(ref, field)
            fast_value = getattr(fast, field)
            assert fast_value == ref_value, (
                f"{self.kind}.{field}: fast={fast_value!r} != ref={ref_value!r}"
            )
        return ref

    def assert_identical_error(self, case: Any, *, exc_type: type = ValueError,
                               message: Optional[str] = None,
                               run_kwargs: Optional[dict] = None) -> str:
        """Both engines must raise the same type with the same message."""
        messages = []
        for engine in (self.reference, self.fast):
            with pytest.raises(exc_type) as err:
                self.run(engine, case, **(run_kwargs or {}))
            messages.append(str(err.value))
        assert messages[0] == messages[1], (
            f"{self.kind}: error messages diverge: "
            f"ref={messages[0]!r} fast={messages[1]!r}"
        )
        if message is not None:
            assert messages[0] == message
        return messages[0]


def registry_test_class(kind: str, *, reference: Callable[..., Any],
                        fast: Callable[..., Any], display: str) -> type:
    """Build the standard registry test class for one engine kind.

    Pins the shape every kind must expose: exactly the two canonical
    names, ``fast`` as the default, identity-preserving lookup, and the
    known names listed verbatim in unknown-name errors (the message CLI
    and service surfaces forward).  ``fast`` may alias ``reference``
    (the ``open`` kind) — the shape holds regardless.
    """

    class TestRegistryContract:
        def test_registry_contents(self):
            table = ENGINES[kind]
            assert set(table) == {"reference", "fast"}
            assert table["reference"] is reference
            assert table["fast"] is fast
            assert available_engines(kind) == ("fast", "reference")

        def test_default_is_fast(self):
            assert DEFAULT_ENGINES[kind] == "fast"
            assert get_engine(kind) is fast
            assert get_engine(kind, None) is fast

        def test_lookup_by_name(self):
            assert get_engine(kind, "reference") is reference
            assert get_engine(kind, "fast") is fast

        def test_unknown_engine_lists_known_names(self):
            with pytest.raises(ValueError, match=f"{display} engine 'warp'"):
                get_engine(kind, "warp")
            with pytest.raises(ValueError, match="fast, reference"):
                get_engine(kind, "warp")

    TestRegistryContract.__name__ = f"TestRegistryContract[{kind}]"
    TestRegistryContract.__qualname__ = TestRegistryContract.__name__
    return TestRegistryContract
