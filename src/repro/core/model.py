"""The §3 analytical model of alias-induced conflicts.

Setting (§3 assumptions): ``C`` transactions proceed in lock step against
an ``N``-entry tagless ownership table; each repeats the pattern of ``α``
new cache-block reads followed by one new cache-block write, so after
``W`` writes a transaction holds ``R = αW`` read entries and ``W`` write
entries, all mapped uniformly at random. There are no true conflicts;
every collision involving a write is a false conflict.

The model is built in the paper's two steps:

* C = 2 (§3.1): Eq. 2 is the per-step incremental conflict likelihood,
  Eq. 3 its sum over steps, and Eq. 4 the closed form
  ``(1 + 2α) W² / N``.
* arbitrary C (§3.2): Eq. 6 generalizes the increment, Eq. 7 the sum,
  and Eq. 8 the closed form ``C (C−1) (1 + 2α) W² / (2N)``.

Because the paper uses a *sum of probabilities* (§3 assumption 6), the raw
closed form can exceed 1 at high conflict rates; we additionally provide a
clipped variant and a product-form refinement
``1 − exp(−Eq.8)`` that remains a probability everywhere and matches the
sum form to first order where the paper's assumption holds.

All functions accept scalars or NumPy arrays for ``w`` (and broadcast over
them), since the experiment sweeps evaluate whole footprint series at
once.  The ``*_batch`` variants additionally vectorize over *all four*
parameters — per-point (W, N, C, α) columns — which is what the serving
layer's batch endpoints and its micro-batched scalar path evaluate; they
are element-wise bit-identical to the scalar forms by construction (same
operations, same order, same ufuncs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Union

import numpy as np

__all__ = [
    "ModelParams",
    "commit_probability",
    "commit_probability_batch",
    "conflict_likelihood",
    "conflict_likelihood_batch",
    "conflict_likelihood_clipped",
    "conflict_likelihood_product_form",
    "conflict_likelihood_product_form_batch",
    "conflict_likelihood_sum",
    "delta_conflict_likelihood",
    "footprint_blocks",
]

FloatOrArray = Union[float, np.ndarray]


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the §3 model.

    Attributes
    ----------
    n_entries:
        Ownership-table size ``N``.
    concurrency:
        Number of lock-step transactions ``C`` (≥ 2 for any conflict).
    alpha:
        Reads per write ``α``; §2.3 measures ≈ 2 for overflowed
        transactions, and the paper's simulations use α = 2.
    """

    n_entries: int
    concurrency: int = 2
    alpha: float = 2.0

    def __post_init__(self) -> None:
        if self.n_entries <= 0:
            raise ValueError(f"n_entries must be positive, got {self.n_entries}")
        if self.concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {self.concurrency}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {self.alpha}")


def _as_w(w: FloatOrArray) -> np.ndarray:
    arr = np.asarray(w, dtype=np.float64)
    if np.any(arr < 0):
        raise ValueError("write footprint W must be non-negative")
    return arr


def _unwrap(result: np.ndarray, like: FloatOrArray) -> FloatOrArray:
    if np.isscalar(like) or (isinstance(like, np.ndarray) and like.ndim == 0):
        return float(result)
    return result


def footprint_blocks(w: FloatOrArray, alpha: float = 2.0) -> FloatOrArray:
    """Total footprint ``F = (1 + α) W`` of a transaction with ``W`` writes."""
    arr = _as_w(w)
    return _unwrap((1.0 + alpha) * arr, w)


def delta_conflict_likelihood(w: FloatOrArray, params: ModelParams) -> FloatOrArray:
    """Incremental conflict likelihood at lock step ``w`` (Eqs. 2 / 6).

    The probability that *one* transaction's step — α new reads plus one
    new write — collides with any of the other ``C−1`` transactions'
    current footprints, when every transaction currently holds ``w − 1``
    complete steps plus the in-progress one:

        Δ(C, w) = (C − 1) ((1 + 2α) w − α) / N

    For C = 2 this is Eq. 2; the general form is Eq. 6.
    """
    arr = _as_w(w)
    c, n, alpha = params.concurrency, params.n_entries, params.alpha
    delta = (c - 1) * ((1.0 + 2.0 * alpha) * arr - alpha) / n
    return _unwrap(np.maximum(delta, 0.0), w)


def conflict_likelihood_sum(w: int, params: ModelParams) -> float:
    """Literal summation form of the model (Eqs. 3 / 7).

    Sums the per-step increments over all ``C`` transactions for
    ``w = 1..W``, with the paper's double-counting compensation
    ``−(C/2)(C−1)/N`` per step:

        Σ_{w=1}^{W} [ C (C−1) ((1+2α) w − α) − (C/2)(C−1) ] / N

    Kept as an explicit loop-free sum so tests can verify it equals the
    closed form exactly — that is the algebra the paper performs between
    Eq. 7 and Eq. 8.
    """
    if w < 0:
        raise ValueError(f"W must be non-negative, got {w}")
    c, n, alpha = params.concurrency, params.n_entries, params.alpha
    steps = np.arange(1, w + 1, dtype=np.float64)
    per_step = c * (c - 1) * ((1.0 + 2.0 * alpha) * steps - alpha) - (c / 2.0) * (c - 1)
    return float(np.sum(per_step) / n)


def conflict_likelihood(w: FloatOrArray, params: ModelParams) -> FloatOrArray:
    """Closed-form conflict likelihood (Eqs. 4 / 8) — may exceed 1.

        conflict(C, W) = C (C − 1) (1 + 2α) W² / (2N)

    This is the headline result: quadratic in the write footprint,
    asymptotically quadratic in concurrency (the ``C (C−1)`` factor), and
    only inversely linear in table size. The raw form is an expected
    *count* of colliding pairs more than a probability; use
    :func:`conflict_likelihood_clipped` or
    :func:`conflict_likelihood_product_form` when a probability is
    required outside the low-conflict regime.
    """
    arr = _as_w(w)
    c, n, alpha = params.concurrency, params.n_entries, params.alpha
    value = c * (c - 1) * (1.0 + 2.0 * alpha) * arr**2 / (2.0 * n)
    return _unwrap(value, w)


def conflict_likelihood_clipped(w: FloatOrArray, params: ModelParams) -> FloatOrArray:
    """Closed form clipped into [0, 1] — the paper's implicit reading."""
    arr = np.asarray(conflict_likelihood(_as_w(w), params))
    return _unwrap(np.clip(arr, 0.0, 1.0), w)


def conflict_likelihood_product_form(w: FloatOrArray, params: ModelParams) -> FloatOrArray:
    """Product-of-survival refinement: ``1 − exp(−Eq.8)``.

    §3 assumption 6 replaces the product of per-step survival
    probabilities by a sum of conflict probabilities, valid while the
    result is small. Undoing that replacement (treating the Eq. 8 value
    as the rate of a Poisson collision count) gives a probability that is
    accurate across the whole range and reduces to Eq. 8 to first order.
    """
    arr = np.asarray(conflict_likelihood(_as_w(w), params))
    return _unwrap(_product_form(arr), w)


def _product_form(raw: np.ndarray) -> np.ndarray:
    """``1 − exp(−raw)`` per element, from Eq. 8 values ``raw``."""
    return -np.expm1(-raw)


def _finite_columns(names: tuple[str, ...], columns: tuple[Any, ...]) -> list[np.ndarray]:
    """Broadcast scalar or 1-D columns to one 1-D float64 shape, all finite.

    Columns that already share a shape skip the broadcast.  Raises
    ``ValueError`` naming the first non-finite column.
    """
    arrays = [np.array(col, dtype=np.float64, ndmin=1) for col in columns]
    shape = arrays[0].shape
    if any(arr.shape != shape for arr in arrays):
        try:
            arrays = np.broadcast_arrays(*arrays)
        except ValueError:
            raise ValueError(
                f"batch parameters {', '.join(names)} must broadcast to a common length"
            ) from None
    if arrays[0].ndim != 1:
        raise ValueError("batch parameters must be scalars or 1-D arrays")
    for name, arr in zip(names, arrays):
        if not np.isfinite(arr).all():
            raise ValueError(f"batch parameter {name!r} must be finite everywhere")
    return arrays


def _batch_param_arrays(w: Any, n: Any, c: Any, alpha: Any) -> list[np.ndarray]:
    """Broadcast per-point (W, N, C, α) columns to one validated 1-D shape.

    Each argument may be a scalar or a 1-D sequence; they broadcast
    against each other like the columns of a table of query points.
    Validation mirrors :class:`ModelParams` + the scalar ``w`` check so a
    batch rejects exactly the points the scalar API would reject.
    """
    arrays = _finite_columns(("w", "n", "c", "alpha"), (w, n, c, alpha))
    w_arr, n_arr, c_arr, a_arr = arrays
    if (w_arr < 0).any():
        raise ValueError("write footprint W must be non-negative")
    if (n_arr < 1).any() or (n_arr != np.floor(n_arr)).any():
        raise ValueError("n_entries must be positive integers")
    if (c_arr < 1).any() or (c_arr != np.floor(c_arr)).any():
        raise ValueError("concurrency must be integers >= 1")
    if (a_arr < 0).any():
        raise ValueError("alpha must be non-negative")
    return arrays


def conflict_likelihood_batch(
    w: Any, n: Any, c: Any = 2, alpha: Any = 2.0
) -> np.ndarray:
    """Vectorized Eq. 8 over per-point (W, N, C, α) columns.

    Unlike :func:`conflict_likelihood`, where only ``w`` broadcasts and
    the table/concurrency parameters are one scalar :class:`ModelParams`,
    every argument here is a column: point ``i`` is evaluated at
    ``(w[i], n[i], c[i], alpha[i])`` after normal NumPy broadcasting.
    This is the serving-layer batch entry point — one call answers a
    whole ``POST /v1/model/conflict`` request.

    The arithmetic replays the scalar expression operation for
    operation, so each element is bit-identical to
    ``conflict_likelihood(w[i], ModelParams(n[i], c[i], alpha[i]))``.
    """
    w_arr, n_arr, c_arr, a_arr = _batch_param_arrays(w, n, c, alpha)
    # Overflow to inf is well-defined here; callers (the service) turn
    # non-finite results into a 400 rather than warn about them.
    with np.errstate(over="ignore"):
        return c_arr * (c_arr - 1.0) * (1.0 + 2.0 * a_arr) * w_arr**2 / (2.0 * n_arr)


def conflict_likelihood_product_form_batch(
    w: Any, n: Any, c: Any = 2, alpha: Any = 2.0
) -> np.ndarray:
    """Vectorized product-form refinement ``1 − exp(−Eq.8)`` per point.

    Batch counterpart of :func:`conflict_likelihood_product_form` with
    per-point (W, N, C, α) columns; element-wise bit-identical to the
    scalar form because both apply the same ``expm1`` ufunc to the same
    Eq. 8 bits.
    """
    return _product_form(conflict_likelihood_batch(w, n, c, alpha))


def commit_probability_batch(
    w: Any, n: Any, c: Any = 2, alpha: Any = 2.0
) -> np.ndarray:
    """Vectorized commit probability per point: ``1 − product_form``.

    Batch counterpart of :func:`commit_probability` with per-point
    (W, N, C, α) columns.
    """
    return 1.0 - conflict_likelihood_product_form_batch(w, n, c, alpha)


def commit_probability(w: FloatOrArray, params: ModelParams) -> FloatOrArray:
    """Probability a transaction of ``W`` writes commits conflict-free.

    Uses the product form so it behaves at all table sizes; the §3.1
    back-of-envelope numbers (>50 000 entries for 50 % commit at W = 71)
    are computed from the raw Eq. 4/8 inversion in
    :mod:`repro.core.sizing`, matching the paper's arithmetic.
    """
    arr = np.asarray(conflict_likelihood_product_form(_as_w(w), params))
    return _unwrap(1.0 - arr, w)
