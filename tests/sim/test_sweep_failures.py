"""A failed grid point ends a sweep-kind run with a clean error, in every mode.

fig2a over a 100-access, 2-thread trace cannot reach W=5: the cleaned
stream holds too few distinct written blocks, so every point raises
``ValueError``.  A serial run propagates that error.  A process pool
records a :class:`~repro.sim.parallel.SweepFailure` instead, which
:meth:`~repro.sim.catalog.SweepKind.run` turns into a ``ValueError``
naming the point; no assembler ever sees it.  A cluster worker with its
own pool reports the chunk failed, the way a serial worker reports the
exception, so the coordinator retries it and gives up with the point's
error rather than losing its workers.
"""

from __future__ import annotations

import re

import pytest

from repro.cli import main
from repro.cluster.coordinator import ClusterError
from repro.sim.catalog import SWEEP_KINDS, execute_sweep

PARAMS = {"accesses": 100, "threads": 2, "w_values": [5, 100000]}


def _params() -> dict:
    return SWEEP_KINDS["fig2a"].validate(PARAMS)


def test_serial_raises_the_points_own_error():
    with pytest.raises(ValueError, match="cannot reach W=5$"):
        execute_sweep("fig2a", _params(), 0)


def test_jobs_failure_names_the_point():
    with pytest.raises(ValueError) as err:
        execute_sweep("fig2a", _params(), 0, jobs=2)
    message = str(err.value)
    assert message.startswith("fig2a point {'n': 4096, 'w': 5} failed: ValueError: ")
    assert message.endswith("cannot reach W=5")


def test_jobs_failure_never_reaches_the_assembler(monkeypatch):
    kind = SWEEP_KINDS["fig2a"]
    seen = []
    monkeypatch.setattr(kind, "_assemble", lambda params, sweep: seen.append(sweep))
    with pytest.raises(ValueError, match="^fig2a point "):
        kind.execute(_params(), 0, 2)
    assert seen == []


def test_cluster_worker_pool_failure_fails_the_chunk():
    with pytest.raises(
        ClusterError,
        match=r"^chunk \d+ \(points \[\d+, \d+\)\) failed after 3 attempts: "
        r"ValueError: stream has only \d+ distinct written blocks",
    ):
        execute_sweep("fig2a", _params(), 0, jobs=2, execution="cluster")


def test_cli_jobs_failure_exits_2(capsys):
    argv = ["fig2a", "--accesses", "100", "--threads", "2", "--samples", "4",
            "--jobs", "2"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: fig2a point {'n': 4096, 'w': 5} failed: ValueError: ")


def test_cli_cluster_failure_exits_2(capsys):
    argv = ["fig2a", "--accesses", "100", "--threads", "2", "--samples", "4",
            "--cluster", "2"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    # Every chunk fails; whichever exhausts its attempts first is named.
    assert re.match(
        r"error: chunk \d+ \(points \[\d+, \d+\)\) failed after 3 attempts: "
        r"ValueError: stream has only \d+ distinct written blocks", err
    )
    assert "Traceback" not in err
