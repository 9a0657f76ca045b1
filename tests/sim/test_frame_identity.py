"""Frame-backed result byte identity across every engine kind.

The columnar frame path must be invisible in the numbers: for each
sweep kind backed by a simulation engine (open, trace, overflow,
closed) plus the allocator kinds, the assembled figure built from a
:class:`~repro.sim.frame.SweepFrame` must serialize byte-for-byte
identically to the list-of-dicts result it replaced, pinned as
digests in ``test_result_golden.py`` — and that identity must hold
across the serial runner, the process pool, and the in-process
cluster (with or without a pool per worker), which all fill the same
frame through different code paths.
"""

from __future__ import annotations

import pytest

from repro.sim.catalog import SWEEP_KINDS, execute_sweep

from tests.sim.engine_contract import assert_frame_identity

# One small-but-nontrivial parameterization per frame-schema kind,
# covering all four engine kinds (fig4a=open, fig2a=trace,
# fig3=overflow, closed=closed) plus the placed-stream kinds.
CASES = {
    "fig4a": {"n_values": [64, 128], "w_values": [2, 3], "samples": 40},
    "fig2a": {"n_values": [4096], "w_values": [5, 10], "samples": 4,
              "accesses": 2000},
    "fig3": {"benchmarks": ["gzip", "mcf"], "traces": 2, "accesses": 2000},
    "closed": {"n_values": [64], "c_values": [2, 4], "w_values": [4]},
    "placement": {"n_values": [1024], "samples": 20},
    "fig7": {"n_values": [256], "w_values": [4, 8], "rounds": 5},
}


def _params(kind_name: str) -> dict:
    params = dict(CASES[kind_name])
    if kind_name == "fig3":
        # Keep to two benchmarks that exist whatever the fleet default is.
        valid = SWEEP_KINDS["fig3"].validate({})["benchmarks"]
        params["benchmarks"] = list(valid[:2])
    return params


def _digest(kind_name: str) -> str:
    # Imported late, as below: test_result_golden imports CASES from here.
    from tests.sim.test_result_golden import RESULT_DIGESTS

    return RESULT_DIGESTS[kind_name][SWEEP_KINDS[kind_name].result_version]


@pytest.mark.parametrize("kind_name", sorted(CASES))
def test_serial_frame_identity(kind_name):
    assert_frame_identity(kind_name, _params(kind_name), _digest(kind_name))


@pytest.mark.parametrize("kind_name", ["fig4a", "closed"])
def test_parallel_frame_identity(kind_name):
    assert_frame_identity(kind_name, _params(kind_name), _digest(kind_name), jobs=2)


@pytest.mark.parametrize("kind_name", ["fig4a", "fig7"])
def test_cluster_frame_identity(kind_name):
    from tests.sim.test_result_golden import result_digest

    kind = SWEEP_KINDS[kind_name]
    params = kind.validate(_params(kind_name))
    frame = kind.make_frame(params)
    via_cluster = execute_sweep(
        kind_name, params, 7, None, execution="cluster", frame=frame
    )
    assert frame.complete
    assert result_digest(via_cluster) == _digest(kind_name)


@pytest.mark.parametrize("kind_name", ["fig4a", "closed"])
def test_cluster_with_jobs_frame_identity(kind_name):
    # Cluster workers that each fan their chunks over a process pool.
    from tests.sim.test_result_golden import result_digest

    kind = SWEEP_KINDS[kind_name]
    params = kind.validate(_params(kind_name))
    frame = kind.make_frame(params)
    sweep = kind.run(params, 7, cluster=2, jobs=2, frame=frame)
    assert frame.complete
    assert result_digest(kind.assemble(params, sweep)) == _digest(kind_name)


def test_model_kind_has_no_frame():
    # The closed-form kind returns an assembled dict directly — there is
    # no grid accumulation to make columnar.
    kind = SWEEP_KINDS["model"]
    assert kind.make_frame({"n_values": [64], "w_values": [4]}) is None


def test_all_grid_kinds_declare_schemas():
    for name, kind in SWEEP_KINDS.items():
        if kind.clusterable:
            assert kind.schema is not None, f"grid kind {name!r} missing schema"
