"""Vectorized Monte Carlo collision kernels.

The open-system and trace-driven experiments both reduce to the same
question: given per-thread sets of (entry, is_write) pairs, did any two
threads collide on an entry with at least one write? Answering it per
sample in pure Python would dominate runtime; these kernels answer it for
*batches* of samples at once with one row-wise sort of packed int64 keys
(the §4 protocols run 1000–10000 samples per data point).

Conflict-detection insight: under the §3/§4 protocols a conflict occurs
*at some time* during the lock-step execution **iff** the completed
footprints collide — permissions are only ever added until a transaction
finishes, so a cross-thread (entry, ≥1 write) coincidence at the end was
a refusal at the time the second access happened. The kernels therefore
work on final footprints, which is what makes batching possible.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "collision_probability_estimate",
    "cross_thread_conflicts",
    "intra_thread_alias_counts",
]


def cross_thread_conflicts(
    entries: np.ndarray, is_write: np.ndarray, thread_of: np.ndarray
) -> np.ndarray:
    """Which samples contain a cross-thread conflicting collision.

    Parameters
    ----------
    entries:
        int array of shape ``(samples, accesses)`` — ownership-table
        entries touched; the access axis concatenates all threads.
    is_write:
        bool array, same shape — write flag per access.
    thread_of:
        int array of shape ``(accesses,)`` — thread owning each column.

    Returns
    -------
    numpy.ndarray
        bool array of shape ``(samples,)``: True where any entry is
        touched by ≥ 2 threads with at least one write — i.e. the sample
        had a (false) conflict.

    Notes
    -----
    A run of equal entries conflicts unless it is single-threaded or
    all-read. Each sample's row is sorted as packed
    ``entry << (tbits + 1) | thread << 1 | write`` int64 keys, so in
    every run the first key holds the smallest thread and the last key
    the largest. Only runs of two or more keys can conflict; they are
    found from adjacent equal-entry pairs, and a run's write count is a
    difference of one ``cumsum`` over its pairs: no global ``argsort``,
    no ``reduceat`` and no Python-level loop over samples. Entries and
    threads too wide to pack into 63 bits are first relabelled to their
    dense ranks, which keeps every verdict.
    """
    entries = np.asarray(entries, dtype=np.int64)
    is_write = np.asarray(is_write, dtype=bool)
    if entries.ndim != 2 or entries.shape != is_write.shape:
        raise ValueError(
            f"entries and is_write must be matching 2-D arrays, got {entries.shape} vs {is_write.shape}"
        )
    thread_of = np.asarray(thread_of, dtype=np.int64)
    if thread_of.shape != (entries.shape[1],):
        raise ValueError(
            f"thread_of must have shape ({entries.shape[1]},), got {thread_of.shape}"
        )
    samples, accesses = entries.shape
    if entries.size == 0:
        return np.zeros(samples, dtype=bool)
    if entries.min() < 0:
        raise ValueError("entries must be non-negative table indices")

    low = int(thread_of.min())
    tbits = (int(thread_of.max()) - low).bit_length()
    if int(entries.max()).bit_length() + tbits > 62:
        _, threads = np.unique(thread_of, return_inverse=True)
        tbits = int(threads.max()).bit_length()
        entries = np.unique(entries, return_inverse=True)[1].reshape(samples, accesses)
    else:
        threads = thread_of - low
    shift = tbits + 1
    keys = entries << shift
    keys |= threads << 1
    keys |= is_write
    keys.sort(axis=1)

    # Only runs of two or more keys can conflict: find the adjacent pairs
    # of one entry (within one sample) and work on those alone.
    flat = keys.ravel()
    same = (flat[1:] ^ flat[:-1]) < (1 << shift)
    same[accesses - 1 :: accesses] = False  # runs never span samples
    pair = np.flatnonzero(same)
    head = np.ones(len(pair), dtype=bool)
    np.not_equal(pair[1:], pair[:-1] + 1, out=head[1:])
    tail = np.ones(len(pair), dtype=bool)
    tail[:-1] = head[1:]
    first, last = pair[head], pair[tail] + 1
    writes = (flat[pair] | flat[pair + 1]) & 1
    counts = np.cumsum(writes)
    any_write = counts[tail] - counts[head] + writes[head] > 0
    # One entry at both ends, so the keys differ above the write bit iff
    # the threads do.
    conflicting = any_write & ((flat[first] ^ flat[last]) > 1)
    out = np.zeros(samples, dtype=bool)
    out[first[conflicting] // accesses] = True
    return out


def intra_thread_alias_counts(entries: np.ndarray) -> np.ndarray:
    """Count intra-thread aliases per sample.

    ``entries`` has shape ``(samples, accesses)`` for a *single thread*'s
    distinct-block footprint; an alias is a repeated entry (two distinct
    blocks of one transaction mapping to one table slot). Returns the
    per-sample count of excess occupancies (touched − distinct), the §4
    "<3 %" validation quantity.
    """
    entries = np.asarray(entries)
    if entries.ndim != 2:
        raise ValueError(f"entries must be 2-D (samples, accesses), got shape {entries.shape}")
    if entries.shape[1] == 0:
        return np.zeros(entries.shape[0], dtype=np.int64)
    sorted_entries = np.sort(entries, axis=1)
    repeats = sorted_entries[:, 1:] == sorted_entries[:, :-1]
    return repeats.sum(axis=1).astype(np.int64)


def collision_probability_estimate(outcomes: np.ndarray) -> tuple[float, float]:
    """Point estimate and standard error for a Bernoulli outcome array.

    Returns ``(p_hat, stderr)`` with the usual binomial standard error;
    benches report ± bands so paper-vs-measured comparisons are honest
    about Monte Carlo noise.
    """
    outcomes = np.asarray(outcomes, dtype=bool)
    n = outcomes.size
    if n == 0:
        raise ValueError("cannot estimate a probability from zero outcomes")
    p = float(outcomes.mean())
    stderr = float(np.sqrt(max(p * (1.0 - p), 0.0) / n))
    return p, stderr
