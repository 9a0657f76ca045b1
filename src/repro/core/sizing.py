"""Ownership-table sizing: the design questions §3 answers.

These functions invert the closed-form model (Eq. 4 / Eq. 8) the same way
the paper's back-of-envelope calculations do — treating the Eq. 8 value
directly as the conflict probability budget — so the reproduced numbers
match the paper's arithmetic:

* W = 71, α = 2, C = 2, commit ≥ 50 % → N > 50 000 entries (§3.1);
* same, commit ≥ 95 % → N > half a million entries (§3.1);
* C = 8, commit ≥ 95 % → N > 14 million entries (§3.2).
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.core.model import ModelParams, _finite_columns, conflict_likelihood

__all__ = [
    "concurrency_scaling_factor",
    "max_footprint_for_table",
    "pow2_table_entries_for_commit_probability",
    "pow2_table_entries_for_commit_probability_batch",
    "table_entries_for_commit_probability",
    "table_entries_for_commit_probability_batch",
    "table_growth_for_concurrency",
]

# Entry counts are served as JSON integers and fed to ``1 << bits`` style
# arithmetic; cap them where int64 is still exact and a power-of-two
# round-up cannot overflow.
_MAX_ENTRIES = 1 << 62


def table_entries_for_commit_probability(
    w: int,
    commit_probability: float,
    *,
    concurrency: int = 2,
    alpha: float = 2.0,
) -> int:
    """Minimum table entries for a target commit probability (Eq. 8 inverted).

    Solves ``C (C−1) (1+2α) W² / (2N) ≤ 1 − p_commit`` for ``N`` and
    rounds up.

    Parameters
    ----------
    w:
        Write footprint of the transactions to sustain (the paper uses
        the §2.3 empirical value W = 71 for hybrid-TM STM transactions).
    commit_probability:
        Target probability in (0, 1) that a transaction sees no false
        conflict.
    concurrency, alpha:
        Model parameters ``C`` and ``α``.
    """
    if w <= 0:
        raise ValueError(f"W must be positive, got {w}")
    if not 0.0 < commit_probability < 1.0:
        raise ValueError(f"commit_probability must be in (0, 1), got {commit_probability}")
    if concurrency < 2:
        raise ValueError(f"concurrency must be >= 2 for conflicts, got {concurrency}")
    budget = 1.0 - commit_probability
    numerator = concurrency * (concurrency - 1) * (1.0 + 2.0 * alpha) * w * w
    entries = numerator / (2.0 * budget)
    if not math.isfinite(entries) or entries > _MAX_ENTRIES:
        raise ValueError(
            "required table size overflows for these parameters; "
            "shrink W or relax the commit target"
        )
    return math.ceil(entries)


def table_entries_for_commit_probability_batch(
    w: Any,
    commit_probability: Any,
    *,
    concurrency: Any = 2,
    alpha: Any = 2.0,
) -> np.ndarray:
    """Vectorized Eq. 8 inversion over per-point (W, commit, C, α) columns.

    Batch counterpart of :func:`table_entries_for_commit_probability`:
    each argument is a scalar or 1-D column and point ``i`` is sized at
    ``(w[i], commit_probability[i], concurrency[i], alpha[i])`` after
    broadcasting.  Returns an int64 array, element-wise bit-identical to
    the scalar form (same operations, same order).
    """
    names = ("w", "commit_probability", "concurrency", "alpha")
    w_arr, p_arr, c_arr, a_arr = _finite_columns(
        names, (w, commit_probability, concurrency, alpha)
    )
    if (w_arr <= 0).any():
        raise ValueError("W must be positive")
    if (p_arr <= 0.0).any() or (p_arr >= 1.0).any():
        raise ValueError("commit_probability must be in (0, 1)")
    if (c_arr < 2).any() or (c_arr != np.floor(c_arr)).any():
        raise ValueError("concurrency must be integers >= 2 for conflicts")
    if (a_arr < 0).any():
        raise ValueError("alpha must be non-negative")
    budget = 1.0 - p_arr
    numerator = c_arr * (c_arr - 1.0) * (1.0 + 2.0 * a_arr) * w_arr * w_arr
    entries = numerator / (2.0 * budget)
    if not np.isfinite(entries).all() or (entries > _MAX_ENTRIES).any():
        raise ValueError(
            "required table size overflows for these parameters; "
            "shrink W or relax the commit target"
        )
    return np.ceil(entries).astype(np.int64)


def pow2_table_entries_for_commit_probability(
    w: int,
    commit_probability: float,
    *,
    concurrency: int = 2,
    alpha: float = 2.0,
) -> int:
    """Smallest power-of-two table meeting a commit-probability target.

    Real ownership tables are indexed by hashing into a power-of-two
    array, so the deployable answer to "what table do I provision?" is
    :func:`table_entries_for_commit_probability` rounded up to the next
    power of two — the capacity-planning number ``/v1/model/capacity``
    serves.
    """
    entries = table_entries_for_commit_probability(
        w, commit_probability, concurrency=concurrency, alpha=alpha
    )
    return 1 << (entries - 1).bit_length()


def pow2_table_entries_for_commit_probability_batch(
    w: Any,
    commit_probability: Any,
    *,
    concurrency: Any = 2,
    alpha: Any = 2.0,
) -> np.ndarray:
    """Vectorized :func:`pow2_table_entries_for_commit_probability`.

    Takes the same per-point columns as
    :func:`table_entries_for_commit_probability_batch` and returns the
    per-point power-of-two round-up as an int64 array.  The float
    ``frexp`` estimate can land one step off near exact powers of two,
    so both directions are corrected with exact integer comparisons —
    the result is exactly ``1 << (entries - 1).bit_length()`` per point.
    """
    entries = table_entries_for_commit_probability_batch(
        w, commit_probability, concurrency=concurrency, alpha=alpha
    )
    return _round_up_pow2(entries)


def _round_up_pow2(entries: np.ndarray) -> np.ndarray:
    """The round-up above: ``1 << (e - 1).bit_length()`` per positive entry count."""
    mantissa, exponent = np.frexp(entries.astype(np.float64))
    bits = np.where(mantissa == 0.5, exponent - 1, exponent).astype(np.int64)
    pow2 = np.int64(1) << bits
    pow2 = np.where(pow2 < entries, pow2 << 1, pow2)
    half = pow2 >> 1
    return np.where(half >= entries, half, pow2)


def max_footprint_for_table(
    n_entries: int,
    commit_probability: float,
    *,
    concurrency: int = 2,
    alpha: float = 2.0,
) -> int:
    """Largest write footprint a table sustains at a commit-rate target.

    Inverse of :func:`table_entries_for_commit_probability` in ``W``:
    since conflicts grow as W², the supported footprint only grows as
    √N — the "sub-linear payoff" of §2.2's Figure 2(b) in design terms.
    """
    if n_entries <= 0:
        raise ValueError(f"n_entries must be positive, got {n_entries}")
    if not 0.0 < commit_probability < 1.0:
        raise ValueError(f"commit_probability must be in (0, 1), got {commit_probability}")
    if concurrency < 2:
        raise ValueError(f"concurrency must be >= 2 for conflicts, got {concurrency}")
    budget = 1.0 - commit_probability
    denom = concurrency * (concurrency - 1) * (1.0 + 2.0 * alpha)
    w = math.sqrt(2.0 * n_entries * budget / denom)
    w_floor = int(w)
    # Guard rounding: ensure the returned footprint actually fits budget.
    params = ModelParams(n_entries=n_entries, concurrency=concurrency, alpha=alpha)
    while w_floor > 0 and conflict_likelihood(float(w_floor), params) > budget + 1e-12:
        w_floor -= 1
    return w_floor


def concurrency_scaling_factor(c_from: int, c_to: int) -> float:
    """Predicted conflict-rate ratio when concurrency changes (Eq. 8).

    ``C (C−1)`` governs the rate, so going from C=2 to C=4 multiplies
    conflicts by ``(4·3)/(2·1) = 6`` — the paper's "almost 6-fold larger
    conflict rate" observation, exactly predicted.
    """
    if c_from < 2 or c_to < 2:
        raise ValueError("concurrency values must be >= 2")
    return (c_to * (c_to - 1)) / (c_from * (c_from - 1))


def table_growth_for_concurrency(c_from: int, c_to: int) -> float:
    """Table-size multiplier needed to hold the conflict rate constant.

    Equal to :func:`concurrency_scaling_factor` because conflicts are
    inversely linear in N: to double concurrency (asymptotically) the
    table must grow ≈ 4× — the §4 Figure 4(b) clustering, where lines for
    ⟨C, N⟩ = ⟨2, N⟩, ⟨4, 4N⟩, ⟨8, 16N⟩ nearly coincide.
    """
    return concurrency_scaling_factor(c_from, c_to)
