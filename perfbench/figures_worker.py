"""The ``paper_figures`` workload process.

Run by ``run.py`` as a child with the checkout's ``src`` on
``PYTHONPATH``.  After its imports it prints ``READY`` and its CPU
time so far, so the parent can time set-up; with ``--probe`` it exits
right there.

A pass takes a fresh seed and a fresh output directory.  It calls
``run_experiments(quality="normal", figures=[f])`` once per figure in
report order (cold), then repeats the same calls :data:`WARM_REPEATS`
times (warm: every chunk is served from the on-disk cache).  One call
per figure keeps chunking deterministic: the adaptive ``ChunkSizer``
only ever sees its static default.  Passes repeat while the next one
is expected to end by ``--seconds`` (the first always runs); a
smoke-quality pass before them warms imports and caches and is not
timed.  Each cold figure call's CPU time is reported with the mean
duration of the :class:`benchutil.SpeedProbe` samples taken during it,
so the parent can rescale it to a fixed host speed and take a median
per figure over the passes.

Checks, each failing the figure call it belongs to: the cold call
computes every chunk and the warm call serves every chunk from cache;
the warm ``report.json`` is byte-identical to the cold one; chunk
counts repeat exactly from pass to pass; and each figure's result has
the shape and invariants listed in :func:`check_result`.

The last stdout line is one JSON object with the timings and counts.
Each pass reports its own ``peak_rss_mb``: the peak is restarted from
the current resident set before the pass (``/proc/self/clear_refs``),
because the peak depends on the pass's seed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import sys
import time
from pathlib import Path

from benchutil import PROBE_REF_NS, SpeedProbe, vm_hwm_mb

# Warm repeats per pass: a warm pass is ~0.1 s, so one sample per pass
# would leave its median at the mercy of a single slow disk read.
WARM_REPEATS = 5


def check_result(figure: str, kind: str, doc: dict) -> str | None:
    """Shape and paper invariants of one figure's ``report.json``; error or None."""
    entry = doc.get("figures", {}).get(figure)
    if entry is None:
        return f"{figure}: missing from report.json"
    if entry.get("kind") != kind or not entry.get("result"):
        return f"{figure}: wrong kind or empty result"
    result = entry["result"]
    if kind in ("fig4a", "fig2a"):
        values = [v for series in result["series"].values() for v in series]
        if not values or not all(0.0 <= v <= 100.0 for v in values):
            return f"{figure}: likelihood outside [0, 100]"
    if kind == "fig7":
        # Section 5: a tagged table never reports a false conflict.
        if any(row["tagged"] != 0 for row in result["false_conflicts_by_table"].values()):
            return f"{figure}: tagged table reported false conflicts"
        for point in result["points"]:
            if point["grants"] + point["conflicts"] != point["acquires"]:
                return f"{figure}: grants + conflicts != acquires"
    if kind == "model":
        if not all(0.0 <= p <= 1.0 for series in result["conflict_probability"].values()
                   for p in series):
            return f"{figure}: probability outside [0, 1]"
    return None


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` from its current resident set."""
    Path("/proc/self/clear_refs").write_text("5")


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--quality", default="normal")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    from repro.experiments.runner import ExperimentsConfig, run_experiments
    from repro.experiments.specs import EXPERIMENTS, figures

    print(f"READY {time.process_time()}", flush=True)
    if args.probe:
        return 0

    rec = None
    if args.trace:
        import tracer

        rec = tracer.Recorder()
        tracer.install(rec)
        call = tracer.span_wrapper(rec, run_experiments, "experiments.run")
    else:
        call = run_experiments

    probe = SpeedProbe()

    def run_pass(out: Path, seed: int, quality: str) -> dict:
        cold_s = cold_cpu_s = 0.0
        cold_fig_cpu_s: dict[str, float] = {}
        # Probe samples per cold call; a call too short to be sampled
        # gets the mean over the whole cold pass (or, in a pass too short
        # for any sample, the reference speed).
        cold_fig_probes: dict[str, list[int]] = {}
        warm_s: list[float] = []
        warm_cpu_s: list[float] = []
        chunks = cached = 0
        reports: dict[str, bytes] = {}
        failures: list[str] = []
        calls = 0
        disk = 0
        for repeat in range(1 + WARM_REPEATS):
            warm = repeat > 0
            start = time.perf_counter()
            cpu_start = time.process_time()
            for figure in figures():
                calls += 1
                probe.take()
                fig_cpu_start = time.process_time()
                res = call(ExperimentsConfig(out_dir=out, quality=quality, seed=seed,
                                             figures=[figure]))
                (tele,) = res.figures
                body = res.report_json.read_bytes()
                if warm:
                    cached += tele.cache_hits if repeat == 1 else 0
                    if tele.cache_hits != tele.chunks or tele.computed_chunks:
                        failures.append(f"{figure}: warm call computed chunks")
                    elif body != reports[figure]:
                        failures.append(f"{figure}: warm report.json differs from cold")
                else:
                    cold_fig_cpu_s[figure] = time.process_time() - fig_cpu_start
                    cold_fig_probes[figure] = [ns for _, ns in probe.take()]
                    chunks += tele.chunks
                    reports[figure] = body
                    if tele.cache_hits or tele.computed_chunks != tele.chunks:
                        failures.append(f"{figure}: cold call found cached chunks")
                    else:
                        error = check_result(figure, EXPERIMENTS[figure].kind,
                                             json.loads(body))
                        if error:
                            failures.append(error)
            if warm:
                warm_s.append(time.perf_counter() - start)
                warm_cpu_s.append(time.process_time() - cpu_start)
            else:
                cold_s = time.perf_counter() - start
                cold_cpu_s = time.process_time() - cpu_start
                disk = dir_bytes(out / "cache")
                every = [ns for samples in cold_fig_probes.values() for ns in samples]
                cold_fig_probe_ns = {f: statistics.fmean(samples or every or [PROBE_REF_NS])
                                     for f, samples in cold_fig_probes.items()}
        return {"cold_s": cold_s, "cold_cpu_s": cold_cpu_s, "cold_fig_cpu_s": cold_fig_cpu_s,
                "cold_fig_probe_ns": cold_fig_probe_ns,
                "warm_s": warm_s, "warm_cpu_s": warm_cpu_s,
                "chunks": chunks, "cached": cached, "calls": calls,
                "failures": failures, "disk_bytes": disk}

    work = args.out
    work.mkdir(parents=True, exist_ok=True)
    seeds = random.Random(args.seed)
    passes = []
    windows = []
    with probe:
        run_pass(work / "warmup", 1, "smoke")
        shutil.rmtree(work / "warmup")
        if rec is not None:
            rec.spans.clear()
        begin = time.perf_counter()
        while True:
            out = work / f"pass{len(passes)}"
            reset_peak_rss()
            t0 = time.perf_counter_ns()
            stats = run_pass(out, seeds.randrange(2**31), args.quality)
            windows.append((t0, time.perf_counter_ns()))
            stats["peak_rss_mb"] = vm_hwm_mb(os.getpid())
            shutil.rmtree(out)
            if passes and (stats["chunks"], stats["cached"]) != (passes[0]["chunks"],
                                                                 passes[0]["cached"]):
                stats["failures"].append("chunk counts differ from the first pass")
            passes.append(stats)
            elapsed = time.perf_counter() - begin
            # Start another pass only if, as long as the last, it ends by the deadline.
            if elapsed + (windows[-1][1] - windows[-1][0]) / 1e9 > args.seconds:
                break

    summary = {"passes": passes, "windows": windows}
    if rec is not None:
        spans_path = work / "spans.json"
        rec.dump(spans_path)
        summary["spans"] = str(spans_path)
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
