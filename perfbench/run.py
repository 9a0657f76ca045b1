"""End-to-end and per-layer benchmark of the birthday-paradox reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_figures --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Workloads (see ``perfbench/README.md``): ``paper_figures`` runs the
experiments pipeline in a child process; ``sweep_stream`` and
``model_mix`` drive a fresh ``repro serve --port 0`` over HTTP.  With
``--trace 0`` a run prints the end-to-end metrics; with ``--trace 1``
the program runs under the span wrappers of ``tracer.py`` and the run
prints per-layer metrics and a table of layers ranked by self time.
``--workload all`` runs every workload (untraced, then traced with
``--trace 1``) and prints the tracing overhead of each.

Every untraced run also prints the workload's wall-clock metrics by
name (``cold_pass_s``, ``sweep_p50_ms``, ``req_p99_ms``, ...).

The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The run exits 2
without a result when the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import benchutil
import tracer
from benchutil import OpLog, median, percentile

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent

# Set-up is sampled this many times per run and reported as the median.
SETUP_SAMPLES = 5
# A run's child must finish within this many seconds beyond --seconds.
CHILD_SLACK_S = 120.0
# Exact per-layer counts of the server workloads are taken over the
# first this-many measured ops, which the seed fixes.
COUNT_OPS = 60

# End-to-end metrics, emitted by every workload: name -> unit.  They are
# CPU times of the program, not wall times: on a shared 2-vCPU KVM guest
# (Intel Xeon) the hypervisor stole 0-28% of vCPU time in bursts lasting
# minutes, which moved wall-clock medians by 20-40% between identical
# runs while CPU times moved by 5-10%.  CPU per op is further rescaled to
# a fixed host speed by benchutil.SpeedProbe: a busy host made the same
# cold pass cost 7.1-9.3 CPU s, 6.3-6.5 s once rescaled.
END_TO_END = {
    "setup_s": "s",  # CPU seconds from spawn until the first op can run
    "peak_rss_mb": "MB",
    "cpu_ms_per_op": "ms",  # program CPU per op at reference speed: cold pass, sweep or request
}

# Per-layer metrics, emitted by every workload under --trace 1 (zero
# where the workload does not reach the layer): name -> unit.
PER_LAYER = {
    **{name: ("ms" if name.endswith(".ms") else "count")
       for name in tracer.SPAN_METRICS},
    "cache.disk_bytes": "bytes",
    "experiments.chunks": "count",
    "experiments.chunks_cached": "count",
    "queue.wait.ms": "ms",
    "http.request.ms.sweeps_submit": "ms",
    "http.request.ms.sweeps_get": "ms",
    "http.request.ms.model_conflict": "ms",
    "http.request.ms.model_capacity": "ms",
    "stream.gets_per_sweep": "count",
    "stream.bytes_per_sweep": "bytes",
    "microbatch.occupancy": "req/flush",
    "microbatch.flush_wait.ms": "ms",
    "microbatch.flushes": "1/req",
    "traced.cpu_ms_per_op": "ms",
}

_ENDPOINTS = {
    "http.request.ms.sweeps_submit": "/v1/sweeps",
    "http.request.ms.sweeps_get": "/v1/sweeps/{id}",
    "http.request.ms.model_conflict": "/v1/model/conflict",
    "http.request.ms.model_capacity": "/v1/model/capacity",
}


@dataclass
class Outcome:
    """What one workload run measured."""

    log: OpLog
    e2e: dict[str, float]
    named: dict[str, tuple[Optional[float], str]]
    layers: dict[str, float] = field(default_factory=dict)
    table: str = ""
    poll_cadence_ms: Optional[float] = None


@dataclass
class Ctx:
    seed: int
    seconds: float
    trace: bool
    tmp: Path
    env: dict[str, str]
    # Tiny inputs for the benchmark's own smoke tests: smoke-quality
    # figures, short warm-ups, fewer set-up samples and counted ops.
    tiny: bool = False

    @property
    def setup_samples(self) -> int:
        return 2 if self.tiny else SETUP_SAMPLES

    @property
    def count_ops(self) -> int:
        return 12 if self.tiny else COUNT_OPS


def _setup_metrics(setups: list[tuple[float, float]]) -> tuple[float, float]:
    """Median (cpu_s, wall_s) over set-up samples of ``(wall_s, cpu_s)``.

    Traced runs take no samples (they report no end-to-end metrics).
    """
    if not setups:
        return 0.0, 0.0
    return median([c for _, c in setups]), median([w for w, _ in setups])


# -- paper_figures -----------------------------------------------------


def run_paper_figures(ctx: Ctx) -> Outcome:
    worker = [sys.executable, str(HERE / "figures_worker.py")]
    stderr = ctx.tmp / "worker.log"

    def ready(child: benchutil.ChildProcess) -> tuple[float, float]:
        word, cpu = child.readline(60).split()
        if word != "READY":
            raise RuntimeError(f"figures worker said {word!r}, not READY")
        return time.perf_counter() - child.started_at, float(cpu)

    setups = []
    for _ in range(0 if ctx.trace else ctx.setup_samples - 1):
        with benchutil.ChildProcess(worker + ["--probe"], cwd=ROOT, env=ctx.env,
                                    stderr_path=stderr) as probe:
            setups.append(ready(probe))
            probe.wait(60)
    cmd = worker + ["--seed", str(ctx.seed), "--seconds", str(ctx.seconds),
                    "--trace", str(int(ctx.trace)), "--out", str(ctx.tmp / "figures"),
                    "--quality", "smoke" if ctx.tiny else "normal"]
    with benchutil.ChildProcess(cmd, cwd=ROOT, env=ctx.env, stderr_path=stderr) as child:
        boot = ready(child)
        if not ctx.trace:
            setups.append(boot)
        line = child.readline(ctx.seconds + CHILD_SLACK_S)
        child.wait(30)
    summary = json.loads(line)
    passes = summary["passes"]

    log = OpLog()
    for p in passes:
        log.succeeded(p["calls"] - len(p["failures"]))
        for reason in p["failures"]:
            log.fail(reason)
    cold = [p["cold_s"] for p in passes]
    cold_cpu = [p["cold_cpu_s"] for p in passes]
    warm = [w for p in passes for w in p["warm_s"]]
    # CPU of a cold pass as the sum of per-figure medians over the passes,
    # each call's CPU rescaled to the probe's reference speed: a busy host
    # then moves a sample only as far as the probe fails to track it.
    cold_pass_cpu_s = sum(
        median([benchutil.at_reference_speed(p["cold_fig_cpu_s"][f], p["cold_fig_probe_ns"][f])
                for p in passes])
        for f in passes[0]["cold_fig_cpu_s"])
    setup_cpu, setup_wall = _setup_metrics(setups)
    out = Outcome(
        log=log,
        e2e={
            "setup_s": setup_cpu,
            "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
            "cpu_ms_per_op": cold_pass_cpu_s * 1e3,
        },
        named={
            "setup_wall_s": (setup_wall, "s"),
            "cold_pass_s": (median(cold), "s"),
            "warm_pass_ms": (median(warm) * 1e3, "ms"),
        },
    )
    spread = (max(cold_cpu) - min(cold_cpu)) / median(cold_cpu)
    print(f"# paper_figures: {len(passes)} passes, cold {[round(c, 3) for c in cold]} s "
          f"(cpu {[round(c, 3) for c in cold_cpu]} s, range {100 * spread:.1f}% of median; "
          f"sum of per-figure medians at reference speed {cold_pass_cpu_s:.3f} s), "
          f"warm median {median(warm) * 1e3:.1f} ms over {len(warm)} repeats")
    if ctx.trace:
        spans = json.loads(Path(summary["spans"]).read_text())["spans"]
        windows = summary["windows"]
        window = (windows[0][0], windows[-1][1])
        out.layers = tracer.span_metrics(spans, window=window, count_window=tuple(windows[0]),
                                         ops=len(passes))
        out.layers.update({
            "cache.disk_bytes": passes[0]["disk_bytes"],
            "experiments.chunks": passes[0]["chunks"],
            "experiments.chunks_cached": passes[0]["cached"],
            "traced.cpu_ms_per_op": out.e2e["cpu_ms_per_op"],
        })
        out.table = tracer.ranked_table(spans, window=window, ops=len(passes), op_label="pass")
    return out


# -- the server workloads ----------------------------------------------


def scrape(port: int) -> dict[tuple[str, str], float]:
    """``/metrics`` as ``{(series, label value): value}``."""
    with urllib.request.urlopen(f"http://127.0.0.1:{port}/metrics", timeout=10) as resp:
        text = resp.read().decode()
    series: dict[tuple[str, str], float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        label = ""
        if "{" in name:
            name, _, rest = name.partition("{")
            label = rest.rstrip("}").partition("=")[2].strip('"')
        series[(name, label)] = float(value)
    return series


def _delta_mean(before: dict, after: dict, base: str, label: str = "",
                scale: float = 1.0) -> float:
    count = after.get((base + "_count", label), 0) - before.get((base + "_count", label), 0)
    total = after.get((base + "_sum", label), 0) - before.get((base + "_sum", label), 0)
    return scale * total / count if count else 0.0


def metric_deltas(before: dict, after: dict, scalar_gets: int) -> dict[str, float]:
    """Per-layer numbers from the server's own ``/metrics`` series."""
    out = {
        metric: _delta_mean(before, after, "repro_request_latency_seconds", endpoint, 1e3)
        for metric, endpoint in _ENDPOINTS.items()
    }
    flushes = (after.get(("repro_microbatch_flushes_total", ""), 0)
               - before.get(("repro_microbatch_flushes_total", ""), 0))
    out.update({
        "queue.wait.ms": _delta_mean(before, after, "repro_queue_wait_seconds", scale=1e3),
        "microbatch.occupancy": _delta_mean(before, after, "repro_microbatch_occupancy"),
        "microbatch.flush_wait.ms": _delta_mean(
            before, after, "repro_microbatch_flush_wait_seconds", scale=1e3),
        "microbatch.flushes": flushes / scalar_gets if scalar_gets else 0.0,
    })
    return out


@dataclass
class ServerRun:
    """A workload's pass over one fresh server."""

    raw: dict
    setup_cpu_s: float
    setup_wall_s: float
    peak_rss_mb: float
    cpu_s: float  # server CPU time inside the timed window
    probe_ns: float  # mean speed-probe duration inside the timed window
    metrics: tuple[dict, dict]  # /metrics before and after the window (traced runs)
    spans: Optional[list]


def _with_server(ctx: Ctx, drive: Callable[..., dict]) -> ServerRun:
    """Boot a fresh server (after set-up samples), drive it, stop it.

    Set-up is timed on plain ``repro serve`` boots; the driven server runs
    under the launcher, which adds the speed probe.  ``drive(server,
    edge)`` runs the workload and calls ``edge()`` at both ends of its
    timed window.
    """
    stderr = ctx.tmp / "server.log"
    setups = benchutil.server_setup_times(
        ROOT, ctx.env, 0 if ctx.trace else ctx.setup_samples, stderr)
    probes_path = ctx.tmp / "server-probes.json"
    spans_path = ctx.tmp / "server-spans.json" if ctx.trace else None
    with benchutil.ServerProcess(benchutil.serve_command(probes_path, spans_path), cwd=ROOT,
                                 env=ctx.env, stderr_path=stderr) as server:
        def edge() -> tuple[float, Optional[dict]]:
            return (benchutil.cpu_seconds(server.pid),
                    scrape(server.port) if ctx.trace else None)

        raw = drive(server, edge)
        peak = benchutil.vm_hwm_mb(server.pid)
    spans = json.loads(spans_path.read_text())["spans"] if spans_path else None
    probe_ns = benchutil.probe_mean_ns(json.loads(probes_path.read_text()),
                                       window=(raw["begin"], raw["end"]))
    (cpu0, metrics0), (cpu1, metrics1) = raw["edges"]
    setup_cpu, setup_wall = _setup_metrics(setups)
    return ServerRun(raw, setup_cpu, setup_wall, peak, cpu1 - cpu0, probe_ns,
                     (metrics0, metrics1), spans)


def _count_end(raw: dict, starts: list[int], ctx: Ctx) -> int:
    """End of the exact-count window: the start of op ``count_ops``, or the run's end."""
    starts = sorted(starts)
    return starts[ctx.count_ops] if len(starts) > ctx.count_ops else raw["end"]


def run_sweep_stream(ctx: Ctx) -> Outcome:
    import sweep_stream as ss

    def drive(server: benchutil.ServerProcess, edge: Callable) -> dict:
        raw = ss.drive(server.port, ctx.seed, ctx.seconds,
                       warmup_ops=3 if ctx.tiny else ss.WARMUP_OPS, edge=edge,
                       server_cpu=lambda: benchutil.live_threads_cpu_seconds(server.pid))
        ss.check(raw["ops"])
        return raw

    server = _with_server(ctx, drive)
    raw, ops = server.raw, server.raw["ops"]
    log = OpLog()
    figures = ss.summarize(raw, log)
    miss, hit, cluster = log.ms("miss"), log.ms("hit"), log.ms("cluster")
    first_row = [s * 1e3 for s in log.samples["first_row"]]
    # Idle polls grow with the sweeps' wall time, not with their work:
    # they are taken out, at the CPU one costs, measured in this run.
    idle_cpu_s = raw["idle_gets"] * raw["idle_get_cpu_s"]
    cpu_per_op = 1e3 * benchutil.at_reference_speed(server.cpu_s - idle_cpu_s,
                                                     server.probe_ns) / len(ops)
    out = Outcome(
        log=log,
        e2e={
            "setup_s": server.setup_cpu_s,
            "peak_rss_mb": server.peak_rss_mb,
            "cpu_ms_per_op": cpu_per_op,
        },
        named={
            "setup_wall_s": (server.setup_wall_s, "s"),
            "sweep_p50_ms": (median(miss), "ms"),
            "sweep_p90_ms": (percentile(miss, 90), "ms"),
            "first_row_p50_ms": (median(first_row), "ms"),
            "hit_p50_ms": (median(hit), "ms"),
            "cluster_p50_ms": (median(cluster), "ms"),
            "sweeps_per_s": (figures["completed"] / figures["elapsed_s"], "1/s"),
        },
        poll_cadence_ms=ss.POLL_CADENCE_S * 1e3,
    )
    print(f"# sweep_stream: {len(miss)} local misses, {len(cluster)} cluster misses, "
          f"{len(hit)} hits in {figures['elapsed_s']:.1f} s; {raw['idle_gets']} idle polls "
          f"at {raw['idle_get_cpu_s'] * 1e3:.3f} ms CPU each "
          f"({100 * idle_cpu_s / max(server.cpu_s, 1e-9):.1f}% of server CPU) taken out; "
          f"{1e3 * (server.cpu_s - idle_cpu_s) / len(ops):.3f} ms CPU per sweep, "
          f"probe {server.probe_ns / 1e3:.1f} us")
    if ctx.trace:
        window = (raw["begin"], raw["end"])
        count_window = (raw["begin"], _count_end(raw, [op.start_ns for op in ops], ctx))
        out.layers = tracer.span_metrics(server.spans, window=window,
                                         count_window=count_window, ops=len(ops))
        out.layers.update(metric_deltas(*server.metrics, 0))
        out.layers.update({
            "stream.gets_per_sweep": raw["gets"] / max(1, figures["streamed"]),
            "stream.bytes_per_sweep": raw["bytes"] / max(1, figures["streamed"]),
            "traced.cpu_ms_per_op": cpu_per_op,
        })
        out.table = tracer.ranked_table(server.spans, window=window, ops=len(ops),
                                        op_label="sweep")
    return out


def run_model_mix(ctx: Ctx) -> Outcome:
    import model_mix as mm

    def drive(server: benchutil.ServerProcess, edge: Callable) -> dict:
        raw = mm.drive(server.port, ctx.seed, ctx.seconds,
                       warmup_s=0.2 if ctx.tiny else mm.WARMUP_S, edge=edge)
        mm.check(server.port, raw["reqs"])
        return raw

    server = _with_server(ctx, drive)
    raw, reqs = server.raw, server.raw["reqs"]
    log = OpLog()
    figures = mm.summarize(raw, log)
    every = log.ms("scalar", "batch", "capacity")
    cpu_per_op = 1e3 * benchutil.at_reference_speed(server.cpu_s, server.probe_ns) / len(reqs)
    out = Outcome(
        log=log,
        e2e={
            "setup_s": server.setup_cpu_s,
            "peak_rss_mb": server.peak_rss_mb,
            "cpu_ms_per_op": cpu_per_op,
        },
        named={
            "setup_wall_s": (server.setup_wall_s, "s"),
            "req_per_s": (len(every) / figures["elapsed_s"], "1/s"),
            "req_p50_ms": (median(every), "ms"),
            "req_p99_ms": (percentile(every, 99), "ms"),
        },
    )
    print(f"# model_mix: {len(every)} requests in {figures['elapsed_s']:.1f} s; "
          f"{1e3 * server.cpu_s / len(reqs):.4f} ms CPU per request, "
          f"probe {server.probe_ns / 1e3:.1f} us")
    if ctx.trace:
        window = (raw["begin"], raw["end"])
        count_window = (raw["begin"], _count_end(raw, [r.start_ns for r in reqs], ctx))
        out.layers = tracer.span_metrics(server.spans, window=window,
                                         count_window=count_window, ops=len(reqs))
        out.layers.update(metric_deltas(*server.metrics, len(log.ms("scalar"))))
        out.layers["traced.cpu_ms_per_op"] = cpu_per_op
        out.table = tracer.ranked_table(server.spans, window=window, ops=len(reqs),
                                        op_label="req")
    return out


WORKLOADS: dict[str, Callable[[Ctx], Outcome]] = {
    "paper_figures": run_paper_figures,
    "sweep_stream": run_sweep_stream,
    "model_mix": run_model_mix,
}


# -- entry point ---------------------------------------------------------


def _fmt(value: Optional[float]) -> str:
    return "n/a (no samples, or fewer than 10 beyond a tail)" if value is None else f"{value:.6g}"


def run_one(name: str, ctx: Ctx) -> Outcome:
    """One workload run in its own scratch directory, removed afterwards."""
    ctx.tmp.mkdir(parents=True, exist_ok=True)
    try:
        return WORKLOADS[name](ctx)
    finally:
        shutil.rmtree(ctx.tmp, ignore_errors=True)


def _report(name: str, out: Outcome, trace: bool) -> None:
    if not trace:
        for metric, value in out.e2e.items():
            print(f"{name:<14} {metric:<18} {_fmt(value):>14} {END_TO_END[metric]}")
        for metric, (value, unit) in out.named.items():
            print(f"{name:<14} {metric:<18} {_fmt(value):>14} {unit}  (wall clock)")
    else:
        print(f"# {name}: layers ranked by self time")
        for line in out.table.splitlines():
            print(f"#   {line}")
    for error in out.log.errors:
        print(f"# {name}: failed op: {error}")


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the benchmark's own smoke tests")
    args = ap.parse_args(argv)

    # SIGTERM unwinds like an error, so every child is stopped and reaped
    # and the scratch directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program under {ROOT / 'src' / 'repro'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = benchutil.program_env(ROOT)
    scratch = ROOT / ".perfbench_tmp"
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for name in names:
        meta = benchutil.run_metadata(ROOT, workload=name, seed=args.seed,
                                      seconds=args.seconds, trace=bool(args.trace))
        steal0 = benchutil.host_cpu_ticks()
        modes = [bool(args.trace)] if args.workload != "all" else (
            [False, True] if args.trace else [False])
        results = {}
        for trace in modes:
            ctx = Ctx(args.seed, args.seconds, trace, scratch / f"{name}-{os.getpid()}", env,
                      tiny=args.tiny)
            results[trace] = out = run_one(name, ctx)
            attempted += out.log.attempted
            failed += out.log.failed
            _report(name, out, trace)
            meta["poll_cadence_ms"] = out.poll_cadence_ms
        meta["loadavg_end"] = list(os.getloadavg())
        steal1 = benchutil.host_cpu_ticks()
        # Share of all vCPU time the host gave to someone else meanwhile.
        meta["steal_pct"] = round(
            100 * (steal1[0] - steal0[0]) / max(1, steal1[1] - steal0[1]), 2)
        print("# meta " + json.dumps(meta, sort_keys=True))
        prefix = f"{name}." if args.workload == "all" else ""
        if False in results:
            for metric, unit in END_TO_END.items():
                metrics[prefix + metric] = {"value": results[False].e2e[metric], "unit": unit}
        if True in results:
            for metric, unit in PER_LAYER.items():
                metrics[prefix + metric] = {"value": results[True].layers.get(metric, 0),
                                            "unit": unit}
        if len(results) == 2:
            base = results[False].e2e["cpu_ms_per_op"]
            traced = results[True].layers["traced.cpu_ms_per_op"]
            print(f"# {name}: tracing overhead {traced - base:+.3f} ms of program CPU per op "
                  f"({100 * (traced - base) / base:+.1f}%)")
    try:
        scratch.rmdir()
    except OSError:
        pass
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
