"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import benchutil  # noqa: E402
import model_mix  # noqa: E402
import run  # noqa: E402
import sweep_stream  # noqa: E402
import tracer  # noqa: E402


# -- percentiles and failure accounting ---------------------------------


def test_percentile_refuses_a_tail_with_fewer_than_ten_samples_beyond():
    assert benchutil.percentile(list(range(1, 101)), 90) == 90  # 10 beyond
    assert benchutil.percentile(list(range(1, 100)), 90) is None  # 9 beyond
    assert benchutil.percentile(list(range(1, 1001)), 99) == 990
    assert benchutil.percentile(list(range(1, 1000)), 99) is None


def test_median_needs_no_tail_margin():
    assert benchutil.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert benchutil.median([1.0, 2.0, 3.0, 4.0]) == 2.5


def test_the_median_of_no_samples_is_none_so_a_failing_run_still_reports():
    assert benchutil.median([]) is None
    assert run._fmt(benchutil.median([])).startswith("n/a")


def test_the_count_window_ends_where_op_count_ops_starts_even_after_failures():
    ctx = run.Ctx(seed=1, seconds=1, trace=True, tmp=Path("."), env={}, tiny=True)
    starts = [10 * i for i in range(ctx.count_ops + 5)]
    # The start times fix the window; a failed op's end (0) plays no part.
    assert run._count_end({"end": 10**9}, starts[::-1], ctx) == 10 * ctx.count_ops
    assert run._count_end({"end": 10**9}, starts[:ctx.count_ops], ctx) == 10**9


def test_failed_ops_count_against_attempted():
    log = benchutil.OpLog()
    log.ok("miss", 0.01)
    log.ok("miss", 0.02)
    log.succeeded(3)
    log.fail("GET -> 500")
    assert (log.attempted, log.failed) == (6, 1)
    assert log.ms("miss") == [10.0, 20.0]
    assert log.errors == ["GET -> 500"]


def _sweep_op(role: str, index: int, result) -> sweep_stream.Op:
    op = sweep_stream.Op(index, role, {"kind": "model", "params": {
        "n_values": [512], "w_values": [4]}, "seed": 1})
    op.start_ns, op.end_ns = 0, 1_000_000
    op.reply = json.dumps({"result": result}).encode()
    return op


def test_an_idle_poll_costs_the_server_cpu_per_empty_window_get():
    class FakeClient:
        gets = 0

        def request(self, method, path):
            assert "offset=64" in path
            self.gets += 1
            return 200, {"x-sweep-count": "0"}, b""

    client = FakeClient()
    op = sweep_stream.Op(0, "miss", {}, href="/v1/sweeps/j1", points_total=64)
    cost = sweep_stream.idle_get_cpu_s(client, op, lambda: client.gets * 2e-4)
    assert client.gets == sweep_stream.IDLE_GETS
    assert cost == pytest.approx(2e-4)


def test_a_cache_hit_that_differs_from_its_miss_fails_its_op():
    from repro.sim.catalog import execute_sweep, validate_sweep_request

    body = _sweep_op("miss", 0, None).body
    kind, params, seed, _, _ = validate_sweep_request(body)
    miss = _sweep_op("miss", 0, execute_sweep(kind, params, seed))
    hit = _sweep_op("hit", 1, {"tampered": True})
    ops = [miss, hit]
    sweep_stream.check(ops)  # ``model`` streams no rows: only the hit is compared
    assert miss.failed is None
    assert hit.failed == "cache hit differs from its miss"
    log = benchutil.OpLog()
    sweep_stream.summarize({"ops": ops, "begin": 0, "end": 10**9}, log)
    assert (log.attempted, log.failed) == (2, 1)


def test_a_scalar_answer_that_differs_from_its_batch_element_fails():
    def req(role: str, reply: dict, **kwargs) -> model_mix.Req:
        r = model_mix.Req(role, "GET", "/", **kwargs)
        r.body_out = json.dumps(reply).encode()
        return r

    batch = req("batch", {"raw": [0.5], "conflict_probability": [0.25],
                          "commit_probability": [0.75]})
    good = req("scalar", {"raw": 0.5, "conflict_probability": 0.25,
                          "commit_probability": 0.75}, expect=(batch, 0))
    bad = req("scalar", {"raw": 0.5, "conflict_probability": 0.2500001,
                         "commit_probability": 0.75}, expect=(batch, 0))
    model_mix.check(0, [batch, good, bad])
    assert good.failed is None
    assert bad.failed == "scalar conflict_probability differs from batch element"


# -- speed probe -------------------------------------------------------


def test_the_speed_probe_samples_while_the_process_burns_cpu():
    with benchutil.SpeedProbe() as probe:
        start = time.process_time()
        while time.process_time() - start < 0.3:
            sum(range(1000))
    samples = probe.take()
    assert len(samples) >= 5 and probe.take() == []
    assert all(end > 0 and ns > 0 for end, ns in samples)
    # The handler is gone: burning more CPU takes no more samples.
    start = time.process_time()
    while time.process_time() - start < 0.1:
        sum(range(1000))
    assert probe.take() == []


def test_cpu_is_rescaled_by_the_probes_inside_the_window():
    ref = benchutil.PROBE_REF_NS
    samples = [(10, 2 * ref), (20, 2 * ref), (30, 9 * ref)]
    assert benchutil.probe_mean_ns(samples, window=(0, 25)) == 2 * ref
    assert benchutil.probe_mean_ns(samples, window=(40, 50)) == ref  # none inside
    assert benchutil.at_reference_speed(3.0, 2 * ref) == 1.5


# -- span analysis ------------------------------------------------------


def test_self_time_subtracts_children_and_leaf_time():
    spans = [
        [1, "job.run", 0, 100, 0, None, {"ownership.acquire": [5, 10]}],
        [2, "engine.open", 10, 40, 1, None, None],
        [3, "montecarlo.conflicts", 20, 30, 2, {"keys": 7}, None],
        [4, "frame.fill", 35, 60, 1, None, None],  # overlaps engine.open
    ]
    selfs = {span[1]: ns for span, ns in tracer.self_times(spans)}
    assert selfs == {"job.run": 100 - 50 - 10, "engine.open": 20,
                     "montecarlo.conflicts": 10, "frame.fill": 25}
    totals = tracer.LayerTotals(spans, (0, 100))
    assert totals.count("ownership.acquire") == 5
    assert totals.attr("montecarlo.conflicts", "keys") == 7
    assert tracer.LayerTotals(spans, (15, 100)).count("job.run") == 0


def test_wrappers_nest_and_adopt_across_threads():
    import threading

    rec = tracer.Recorder()
    inner = tracer.span_wrapper(rec, lambda: None, "inner", adopt="outer")

    def outer_fn():
        worker = threading.Thread(target=inner)
        worker.start()
        worker.join(5)
        assert not worker.is_alive()
        inner()

    tracer.span_wrapper(rec, outer_fn, "outer", anchor=True)()
    by_name = {}
    for span in rec.spans:
        by_name.setdefault(span[1], []).append(span)
    (outer,) = by_name["outer"]
    assert [s[4] for s in by_name["inner"]] == [outer[0], outer[0]]


# -- child process lifecycle -------------------------------------------


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def test_server_is_killed_and_reaped_when_the_body_raises(tmp_path):
    env = benchutil.program_env(ROOT)
    with pytest.raises(RuntimeError, match="boom"):
        with benchutil.ServerProcess(benchutil.serve_command(), cwd=ROOT,
                                     env=env) as server:
            pid = server.pid
            assert server.port > 0 and server.setup_s > 0
            raise RuntimeError("boom")
    assert server.proc.returncode is not None
    assert not _group_alive(pid)


def test_a_child_ignoring_sigint_is_killed_after_the_grace(tmp_path, monkeypatch):
    monkeypatch.setattr(benchutil, "STOP_GRACE_S", 0.2)
    code = ("import signal, time; signal.signal(signal.SIGINT, signal.SIG_IGN); "
            "print('up', flush=True); time.sleep(60)")
    child = benchutil.ChildProcess([sys.executable, "-c", code], cwd=ROOT, env=dict(os.environ))
    with child:
        assert child.readline(30) == "up"
        pid = child.pid
        child.stop()
    assert child.proc.returncode == -9
    assert not _group_alive(pid)


def _children(pid: int) -> list[int]:
    kids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            kids.append(int(stat.parent.name))
    return kids


def test_sigterm_stops_every_child_and_removes_the_scratch_dir():
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--workload", "model_mix", "--seed", "1",
         "--seconds", "60", "--trace", "0", "--tiny"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60
        servers: list[int] = []
        while not servers and time.monotonic() < deadline:
            time.sleep(0.2)
            servers = _children(proc.pid)
        assert servers, "no server was started"
        time.sleep(1.0)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(60) == 128 + signal.SIGTERM
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    for pid in servers:
        assert not Path(f"/proc/{pid}").exists() or not _group_alive(pid)
    assert not (ROOT / ".perfbench_tmp" / f"model_mix-{proc.pid}").exists()


def test_traced_launcher_writes_its_probes_and_spans_on_shutdown(tmp_path):
    probes, spans = tmp_path / "probes.json", tmp_path / "spans.json"
    env = benchutil.program_env(ROOT)
    with benchutil.ServerProcess(benchutil.serve_command(probes, spans), cwd=ROOT,
                                 env=env) as server:
        assert server.port > 0
    assert isinstance(json.loads(probes.read_text()), list)
    assert json.loads(spans.read_text())["spans"] is not None


# -- tiny end-to-end runs -------------------------------------------------


def _run(workload: str, trace: int, seed: int = 5, seconds: int = 2) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return proc.stdout, json.loads(lines[-1])


def _expected_keys(trace: int) -> set[str]:
    return set(run.PER_LAYER if trace else run.END_TO_END)


@pytest.mark.parametrize("workload", ["paper_figures", "sweep_stream", "model_mix"])
def test_tiny_run_is_correct_and_prints_every_metric(workload):
    out, result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == _expected_keys(0)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert '"loadavg_end"' in out and '"source_digest"' in out


EXACT = ("experiments.chunks", "experiments.chunks_cached", "cache.lookups", "cache.hits",
         "ownership.acquires", "montecarlo.keys")


@pytest.mark.parametrize("workload", ["paper_figures", "sweep_stream"])
def test_traced_exact_counts_repeat_for_the_same_seed(workload):
    out, first = _run(workload, 1, seconds=3)
    _, second = _run(workload, 1, seconds=3)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == _expected_keys(1)
    counts = [{k: r["metrics"][k]["value"] for k in EXACT} for r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["cache.lookups"] > 0
    assert "layers ranked by self time" in out


def test_a_directory_without_the_program_exits_nonzero_without_a_result(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "model_mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_lists_exactly_the_metrics_a_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
