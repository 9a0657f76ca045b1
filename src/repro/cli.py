"""Command-line interface: run the paper's experiments from a shell.

    python -m repro model --w 20 --n 4096 --c 2
    python -m repro sizing --w 71 --commit 0.95 --c 8
    python -m repro capacity --w 71 --commit 0.95 --c 8
    python -m repro fig2a --samples 500
    python -m repro fig3 --traces 5
    python -m repro fig4a --samples 2000
    python -m repro fig5 --c 2
    python -m repro fig7 --rounds 60 --placement slab
    python -m repro placement --samples 400 --w 8
    python -m repro closed --n 4096 --c 4 --w 10
    python -m repro birthday --target 0.5
    python -m repro serve --port 8642
    python -m repro loadgen --port 8642 --duration 5
    python -m repro loadgen --port 8642 --profile batch --batch-size 256
    python -m repro cluster coordinate --kind fig4a --port 8653
    python -m repro cluster work --coordinator http://127.0.0.1:8653
    python -m repro experiments list
    python -m repro experiments run --quality smoke --out runs/all-figures

Every subcommand prints the same series its benchmark counterpart
asserts on, with explicit seeds, so results can be pasted into reports.
``serve`` exposes the model and sweep engines over JSON/HTTP (see
:mod:`repro.service`); ``loadgen`` measures a running server.
``cluster`` distributes one sweep across worker processes — possibly on
other machines — via :mod:`repro.cluster`; sweep subcommands also take
``--cluster N`` to fan out over N in-process workers directly.
Every sweep runs the fast engine of its kind; the reference engines are
byte-identical oracles for the differential tests and the speedup
benchmarks, so no subcommand takes an engine flag (see
:mod:`repro.sim.engines`).  The figure subcommands resolve
through the same declarative sweep-kind table
(:data:`repro.sim.catalog.SWEEP_KINDS`) the service and cluster use, so
all three surfaces run the very same point functions.  ``experiments
run`` executes *every* paper figure in one resumable, checkpointed run
(:mod:`repro.experiments`) — interrupt it, rerun the same command, and
finished chunks are served from the on-disk cache.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Mapping, Optional, Sequence

from repro.analysis.tables import format_series, format_table
from repro.core.birthday import birthday_collision_probability, people_for_collision_probability
from repro.core.model import ModelParams, conflict_likelihood, conflict_likelihood_product_form
from repro.core.sizing import table_entries_for_commit_probability
from repro.sim.catalog import SWEEP_KINDS
from repro.sim.closed_system import ClosedSystemConfig

__all__ = ["main", "build_parser", "version_string"]


def version_string() -> str:
    """The installed package version, from distribution metadata.

    Falls back to ``repro.__version__`` when the distribution is not
    installed (e.g. running from a source tree via ``PYTHONPATH=src``).
    """
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version("repro")
    except PackageNotFoundError:
        import repro

        return repro.__version__


def _jobs_arg(value: str) -> int:
    """argparse type for strictly positive counts (--jobs, --workers, ...).

    argparse prefixes the failing flag's own name, so the message stays
    flag-agnostic.
    """
    try:
        jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {jobs}")
    return jobs


def _add_jobs_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=_jobs_arg,
        default=None,
        metavar="N",
        help="worker processes for the sweep (default: serial)",
    )


def _add_cluster_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cluster",
        type=_jobs_arg,
        default=None,
        metavar="N",
        help="distribute the sweep over N in-process cluster workers (default: off)",
    )


def _progress_line(done: int, total: int) -> None:
    """CLI sweep progress: a carriage-return line on stderr.

    Suppressed entirely when stderr is not a TTY — carriage returns
    would otherwise pollute redirected logs and CI output with one
    ever-growing line of overstrikes.  (The end-of-sweep telemetry
    summary is printed unconditionally by :func:`_run_kind`.)
    """
    if not sys.stderr.isatty():
        return
    end = "\n" if done >= total else ""
    print(f"\r[sweep] {done}/{total} points", end=end, file=sys.stderr, flush=True)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Zilles & Rajwar, 'Transactional Memory and the Birthday Paradox' — "
        "reproduction toolkit",
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {version_string()}",
        help="print the package version and exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("model", help="evaluate the Eq. 8 conflict model")
    p.add_argument("--w", type=int, required=True, help="write footprint W")
    p.add_argument("--n", type=int, required=True, help="ownership-table entries N")
    p.add_argument("--c", type=int, default=2, help="concurrency C (default 2)")
    p.add_argument("--alpha", type=float, default=2.0, help="reads per write (default 2)")

    p = sub.add_parser("sizing", help="invert Eq. 8: table size for a commit target")
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--commit", type=float, required=True, help="target commit probability")
    p.add_argument("--c", type=int, default=2)
    p.add_argument("--alpha", type=float, default=2.0)

    p = sub.add_parser(
        "capacity", help="smallest power-of-two table for a commit target"
    )
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--commit", type=float, required=True, help="target commit probability")
    p.add_argument("--c", type=int, default=2)
    p.add_argument("--alpha", type=float, default=2.0)

    p = sub.add_parser("fig2a", help="trace-driven alias likelihood vs footprint (Figure 2a)")
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--accesses", type=int, default=100_000)
    _add_jobs_flag(p)
    _add_cluster_flag(p)

    p = sub.add_parser("fig3", help="HTM overflow characterization (Figure 3)")
    p.add_argument("--traces", type=int, default=5, help="traces per benchmark")
    p.add_argument("--victim", type=int, default=0, help="victim-buffer entries")
    _add_jobs_flag(p)
    _add_cluster_flag(p)

    p = sub.add_parser("fig4a", help="open-system conflict likelihood (Figure 4a)")
    p.add_argument("--samples", type=int, default=2000)
    _add_jobs_flag(p)
    _add_cluster_flag(p)

    p = sub.add_parser("closed", help="one closed-system run (Figures 5-6 protocol)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=int, default=2)
    p.add_argument("--w", type=int, default=10)
    p.add_argument("--alpha", type=int, default=2)
    _add_jobs_flag(p)
    _add_cluster_flag(p)

    p = sub.add_parser("fig5", help="closed-system conflicts vs footprint sweep (Figure 5a)")
    p.add_argument("--c", type=int, default=2, help="concurrency C (default 2)")
    p.add_argument("--alpha", type=int, default=2, help="reads per write (default 2)")
    _add_jobs_flag(p)
    _add_cluster_flag(p)

    p = sub.add_parser(
        "placement",
        help="allocator-placement false-conflict sensitivity sweep (Dice et al.)",
    )
    p.add_argument("--samples", type=int, default=400)
    p.add_argument("--w", type=int, default=8, help="write footprint W (default 8)")
    p.add_argument(
        "--objects", type=int, default=512, help="objects per thread (default 512)"
    )
    p.add_argument("--skew", type=float, default=1.2, help="Zipf skew (default 1.2)")
    _add_jobs_flag(p)
    _add_cluster_flag(p)

    p = sub.add_parser(
        "fig7",
        help="tagless vs tagged ownership-table A/B on identical streams (Figure 7)",
    )
    p.add_argument("--rounds", type=int, default=60, help="replay rounds per point")
    p.add_argument(
        "--placement", type=str, default="slab",
        help="allocator placement preset (default slab)",
    )
    p.add_argument(
        "--hash", dest="hash_kind", type=str, default="mask",
        help="hash kind for both tables (default mask)",
    )
    p.add_argument("--c", type=int, default=4, help="concurrency C (default 4)")
    _add_jobs_flag(p)
    _add_cluster_flag(p)

    p = sub.add_parser("report", help="generate a full markdown reproduction report")
    p.add_argument("--quality", choices=["smoke", "normal"], default="smoke")
    p.add_argument("--output", type=str, default=None, help="write to file instead of stdout")
    _add_jobs_flag(p)
    _add_cluster_flag(p)

    p = sub.add_parser("birthday", help="classical birthday-paradox numbers")
    p.add_argument("--target", type=float, default=0.5, help="collision probability target")
    p.add_argument("--days", type=int, default=365)

    p = sub.add_parser("serve", help="serve the model and sweep engines over JSON/HTTP")
    p.add_argument("--host", type=str, default="127.0.0.1", help="bind address")
    p.add_argument("--port", type=int, default=8642, help="bind port (0 = ephemeral)")
    p.add_argument(
        "--workers", type=_jobs_arg, default=2, metavar="N",
        help="job-queue worker threads (default 2)",
    )
    p.add_argument(
        "--queue-capacity", type=_jobs_arg, default=16, metavar="N",
        help="max pending+running jobs before 429 (default 16)",
    )
    p.add_argument(
        "--job-timeout", type=float, default=300.0, metavar="SECONDS",
        help="per-job wall-clock budget; <= 0 disables (default 300)",
    )
    p.add_argument(
        "--cache-capacity", type=_jobs_arg, default=256, metavar="N",
        help="in-memory result-cache entries (default 256)",
    )
    p.add_argument(
        "--cache-dir", type=str, default=None, metavar="DIR",
        help="directory for the persistent disk cache tier (default: off)",
    )
    p.add_argument(
        "--cluster-workers", type=_jobs_arg, default=2, metavar="N",
        help="in-process cluster workers for 'execution: cluster' sweeps (default 2)",
    )

    p = sub.add_parser(
        "cluster", help="distributed sweep execution (coordinator + workers)"
    )
    csub = p.add_subparsers(dest="cluster_command", required=True)

    c = csub.add_parser(
        "coordinate", help="serve one sweep to workers and print the merged result"
    )
    c.add_argument(
        "--kind", type=str, default="fig4a",
        help="clusterable sweep kind from the service catalog (default fig4a)",
    )
    c.add_argument(
        "--params", type=str, default="{}", metavar="JSON",
        help="sweep parameters as a JSON object (default {})",
    )
    c.add_argument("--host", type=str, default="127.0.0.1", help="bind address")
    c.add_argument("--port", type=int, default=8653, help="bind port (0 = ephemeral)")
    c.add_argument(
        "--workers", type=_jobs_arg, default=2, metavar="N",
        help="expected worker count, used for chunk sizing (default 2)",
    )
    c.add_argument(
        "--chunk-size", type=_jobs_arg, default=None, metavar="N",
        help="grid points per lease (default: ~4 chunks per expected worker)",
    )
    c.add_argument(
        "--lease-ttl", type=float, default=10.0, metavar="SECONDS",
        help="lease lifetime between heartbeats (default 10)",
    )
    c.add_argument(
        "--max-attempts", type=_jobs_arg, default=3, metavar="N",
        help="dispatches per chunk before the run fails (default 3)",
    )
    c.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="overall run deadline (default: wait forever)",
    )
    c.add_argument(
        "--linger", type=float, default=2.0, metavar="SECONDS",
        help="keep serving after completion so workers observe 'done' (default 2)",
    )
    c.add_argument(
        "--cache-dir", type=str, default=None, metavar="DIR",
        help="directory for chunk-level result caching (default: off)",
    )

    c = csub.add_parser("work", help="claim and execute chunks for a coordinator")
    c.add_argument(
        "--coordinator", type=str, default="http://127.0.0.1:8653", metavar="URL",
        help="coordinator base URL (default http://127.0.0.1:8653)",
    )
    c.add_argument(
        "--id", type=str, default=None, metavar="NAME",
        help="stable worker identity (default: generated)",
    )
    c.add_argument(
        "--jobs", type=_jobs_arg, default=None, metavar="N",
        help="process-pool parallelism within each chunk (default: serial)",
    )
    c.add_argument(
        "--poll-interval", type=float, default=0.05, metavar="SECONDS",
        help="sleep between lease polls when no chunk is claimable (default 0.05)",
    )
    c.add_argument(
        "--crash-after", type=int, default=None, metavar="N",
        help="fault injection: vanish while holding a lease after N completed chunks",
    )

    p = sub.add_parser(
        "experiments", help="resumable all-figures experiment pipeline"
    )
    esub = p.add_subparsers(dest="experiments_command", required=True)

    e = esub.add_parser("list", help="list the per-figure experiment specs")
    e.add_argument(
        "--quality", choices=["smoke", "normal"], default="smoke",
        help="quality tier whose grids to show (default smoke)",
    )

    e = esub.add_parser(
        "run",
        help="run every paper figure, checkpointed and resumable",
        description="Execute every paper figure at the chosen quality, "
        "checkpointing each chunk under --out; rerunning the identical "
        "command after an interrupt skips finished chunks and produces "
        "a byte-identical report artifact.",
    )
    e.add_argument(
        "--quality", choices=["smoke", "normal"], default="smoke",
        help="grid tier: smoke (minutes) or normal (paper-faithful)",
    )
    e.add_argument(
        "--out", type=str, default="experiments-out", metavar="DIR",
        help="output dir for manifest, chunk cache and report (default experiments-out)",
    )
    e.add_argument(
        "--figures", type=str, default=None, metavar="IDS",
        help="comma-separated subset of figure ids (default: all)",
    )
    _add_jobs_flag(e)
    e.add_argument(
        "--cluster", type=_jobs_arg, default=None, metavar="N",
        help="run on N elastic in-process cluster workers (default: off)",
    )
    e.add_argument(
        "--lease-ttl", type=float, default=10.0, metavar="SECONDS",
        help="cluster lease ttl; stealing kicks in at half of it (default 10)",
    )
    e.add_argument(
        "--chunk-target-seconds", type=float, default=2.0, metavar="SECONDS",
        help="adaptive chunk sizing target per lease (default 2)",
    )
    e.add_argument(
        "--crash-after", type=_jobs_arg, default=None, metavar="N",
        help="fault injection: interrupt the run after N computed chunks",
    )
    e.add_argument(
        "--elastic-depart-after", type=int, default=None, metavar="N",
        help="elasticity injection: one worker vanishes mid-chunk after N chunks",
    )
    e.add_argument(
        "--elastic-join-after", type=float, default=None, metavar="SECONDS",
        help="elasticity injection: one extra worker joins after this delay",
    )

    p = sub.add_parser("loadgen", help="closed-loop load generator against a server")
    p.add_argument("--host", type=str, default="127.0.0.1", help="target host")
    p.add_argument("--port", type=int, required=True, help="target port")
    p.add_argument(
        "--path",
        type=str,
        default="/v1/model/conflict?w=20&n=4096&c=2",
        help="request target issued by every client",
    )
    p.add_argument(
        "--concurrency", type=_jobs_arg, default=8, metavar="N",
        help="closed-loop client population (default 8)",
    )
    p.add_argument(
        "--duration", type=float, default=5.0, metavar="SECONDS",
        help="measurement window (default 5)",
    )
    p.add_argument(
        "--warmup", type=float, default=0.5, metavar="SECONDS",
        help="traffic discarded before the window opens (default 0.5)",
    )
    p.add_argument(
        "--profile", choices=("scalar", "batch", "mixed"), default="scalar",
        help="workload shape: scalar GETs, batch POSTs, or alternating (default scalar)",
    )
    p.add_argument(
        "--batch-size", type=_jobs_arg, default=256, metavar="POINTS",
        help="model points per batch POST (default 256)",
    )

    return parser


def _cmd_model(args: argparse.Namespace) -> int:
    params = ModelParams(n_entries=args.n, concurrency=args.c, alpha=args.alpha)
    raw = conflict_likelihood(float(args.w), params)
    prob = conflict_likelihood_product_form(float(args.w), params)
    print(
        format_table(
            ["quantity", "value"],
            [
                ["raw Eq. 8 (expected collisions)", f"{raw:.4f}"],
                ["conflict probability (1 - e^-x)", f"{prob:.4f}"],
                ["commit probability", f"{1 - prob:.4f}"],
            ],
            title=f"Model: W={args.w}, N={args.n}, C={args.c}, alpha={args.alpha}",
        )
    )
    return 0


def _cmd_sizing(args: argparse.Namespace) -> int:
    n = table_entries_for_commit_probability(
        args.w, args.commit, concurrency=args.c, alpha=args.alpha
    )
    print(
        f"Sustaining W={args.w} at C={args.c} with commit probability "
        f">= {args.commit:.0%} requires a tagless table of {n:,} entries "
        f"({n * 8 / (1 << 20):.1f} MiB at 8 B/entry)."
    )
    return 0


def _cmd_capacity(args: argparse.Namespace) -> int:
    from repro.core.sizing import pow2_table_entries_for_commit_probability

    exact = table_entries_for_commit_probability(
        args.w, args.commit, concurrency=args.c, alpha=args.alpha
    )
    pow2 = pow2_table_entries_for_commit_probability(
        args.w, args.commit, concurrency=args.c, alpha=args.alpha
    )
    raw = conflict_likelihood(
        float(args.w), ModelParams(n_entries=pow2, concurrency=args.c, alpha=args.alpha)
    )
    print(
        f"Sustaining W={args.w} at C={args.c} with commit probability "
        f">= {args.commit:.0%} requires {exact:,} entries; provision the "
        f"next power of two: 2^{pow2.bit_length() - 1} = {pow2:,} entries "
        f"({pow2 * 8 / (1 << 20):.1f} MiB at 8 B/entry), which achieves "
        f"commit probability {1.0 - float(raw):.4%}."
    )
    return 0


def _run_kind(kind_name: str, raw_params: Mapping[str, Any],
              args: argparse.Namespace) -> tuple[dict[str, Any], dict[str, Any]]:
    """Validate the CLI flags through a sweep kind, run and assemble it.

    One code path for every figure subcommand: the kind's schema gives
    the same messages as ``POST /v1/sweeps``, and :meth:`SweepKind.run`
    executes serially, on the process pool, or across in-process
    cluster workers.  Returns the normalized params and the assembled
    result.
    """
    kind = SWEEP_KINDS[kind_name]
    params = kind.validate(raw_params)
    sweep = kind.run(
        params, args.seed, jobs=args.jobs, cluster=args.cluster,
        progress=_progress_line,
    )
    if sweep.telemetry is not None:
        print(f"[sweep] {sweep.telemetry.summary()}", file=sys.stderr)
    return params, kind.assemble(params, sweep)


def _cmd_fig2a(args: argparse.Namespace) -> int:
    _, out = _run_kind(
        "fig2a",
        {"samples": args.samples, "threads": args.threads,
         "accesses": args.accesses},
        args,
    )
    print(format_series("W", out["w_values"], out["series"],
                        title=f"Figure 2(a): alias likelihood (%), C=2, seed={args.seed}"))
    return 0


def _cmd_fig3(args: argparse.Namespace) -> int:
    _, out = _run_kind(
        "fig3",
        {"traces": args.traces, "victim": args.victim},
        args,
    )
    rows = [
        [
            r["bench"],
            round(r["mean_write_blocks"]),
            round(r["mean_read_blocks"]),
            f"{r['mean_utilization']:.0%}",
            f"{r['mean_instructions'] / 1e3:.1f}K",
        ]
        for r in out["points"]
    ]
    print(
        format_table(
            ["bench", "writes", "reads", "util", "instr"],
            rows,
            title=f"Figure 3: overflow characterization (victim={args.victim}, seed={args.seed})",
        )
    )
    return 0


def _cmd_fig4a(args: argparse.Namespace) -> int:
    _, out = _run_kind("fig4a", {"samples": args.samples}, args)
    print(format_series("W", out["w_values"], out["series"],
                        title=f"Figure 4(a): conflict likelihood (%), C=2, seed={args.seed}"))
    return 0


def _cmd_closed(args: argparse.Namespace) -> int:
    # Validate up front (ClosedSystemConfig.__post_init__) so bad
    # parameters fail with a clean message in every execution mode,
    # not as a SweepFailure deep inside a worker.
    ClosedSystemConfig(
        n_entries=args.n,
        concurrency=args.c,
        write_footprint=args.w,
        alpha=args.alpha,
        seed=args.seed,
    )
    _, out = _run_kind(
        "closed",
        {"n_values": [args.n], "c_values": [args.c], "w_values": [args.w],
         "alpha": args.alpha},
        args,
    )
    r = out["points"][0]
    print(
        format_table(
            ["quantity", "value"],
            [
                ["conflicts", r["conflicts"]],
                ["committed", r["committed"]],
                ["mean occupancy", f"{r['mean_occupancy']:.1f}"],
                ["expected occupancy", f"{r['expected_occupancy']:.1f}"],
                ["actual concurrency", f"{r['actual_concurrency']:.2f}"],
            ],
            title=f"Closed system: N={args.n}, C={args.c}, W={args.w}, seed={args.seed}",
        )
    )
    return 0


def _cmd_fig5(args: argparse.Namespace) -> int:
    w_values = [8, 12, 16, 20]
    n_values = [1024, 4096, 16384]
    ClosedSystemConfig(n_entries=n_values[0], concurrency=args.c, alpha=args.alpha)
    _, out = _run_kind(
        "closed",
        {"n_values": n_values, "c_values": [args.c], "w_values": w_values,
         "alpha": args.alpha},
        args,
    )
    series = {
        f"N={n}": [float(r["conflicts"]) for r in out["points"] if r["n_entries"] == n]
        for n in n_values
    }
    print(format_series("W", w_values, series,
                        title=f"Figure 5(a): closed-system conflicts, C={args.c}, seed={args.seed}"))
    return 0


def _cmd_placement(args: argparse.Namespace) -> int:
    params, out = _run_kind(
        "placement",
        {"samples": args.samples, "w": args.w, "objects": args.objects,
         "skew": args.skew},
        args,
    )
    print(format_series(
        "N", out["n_values"], out["series"],
        title=f"Placement sensitivity: false conflicts (%), "
        f"W={params['w']}, seed={args.seed}",
    ))
    return 0


def _cmd_fig7(args: argparse.Namespace) -> int:
    params, out = _run_kind(
        "fig7",
        {"rounds": args.rounds, "placement": args.placement,
         "hash_kind": args.hash_kind, "concurrency": args.c},
        args,
    )
    print(format_series(
        "W", out["w_values"], out["series"],
        title=f"Figure 7: false conflicts by table, "
        f"placement={params['placement']}, seed={args.seed}",
    ))
    rows = [
        [label] + [totals[t] for t in out["tables"]]
        for label, totals in out["false_conflicts_by_table"].items()
    ]
    print(format_table(["false conflicts"] + list(out["tables"]), rows))
    return 0


def _cmd_birthday(args: argparse.Namespace) -> int:
    k = people_for_collision_probability(args.target, days=args.days)
    p = birthday_collision_probability(k, days=args.days)
    print(
        f"{k} people give a {p:.1%} collision probability over {args.days} days "
        f"(target {args.target:.0%}); table occupancy at threshold: {k / args.days:.2%}."
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import ReportConfig, generate_report

    text = generate_report(
        ReportConfig(
            quality=args.quality,
            seed=args.seed,
            jobs=args.jobs,
            cluster=args.cluster,
        )
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import ServiceConfig, serve

    return serve(
        ServiceConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            queue_capacity=args.queue_capacity,
            job_timeout=args.job_timeout if args.job_timeout > 0 else None,
            cache_capacity=args.cache_capacity,
            cache_dir=args.cache_dir,
            cluster_workers=args.cluster_workers,
        )
    )


def _cmd_cluster_coordinate(args: argparse.Namespace) -> int:
    """Serve one sweep to remote workers; print the assembled result.

    Stdout carries exactly one line — the canonical-JSON result, the
    same object ``POST /v1/sweeps`` would return — so output can be
    diffed against a serial :func:`repro.sim.catalog.execute_sweep`
    run.  Everything operational goes to stderr.
    """
    import json
    import time

    from repro.cluster.coordinator import (
        ClusterError,
        Coordinator,
        CoordinatorConfig,
        CoordinatorThread,
    )
    from repro.sim.catalog import SweepValidationError

    kind = SWEEP_KINDS.get(args.kind)
    if kind is None or not kind.clusterable:
        clusterable = sorted(k for k, v in SWEEP_KINDS.items() if v.clusterable)
        print(
            f"error: --kind must be one of {clusterable}, got {args.kind!r}",
            file=sys.stderr,
        )
        return 2
    try:
        raw = json.loads(args.params)
    except json.JSONDecodeError as exc:
        print(f"error: --params is not valid JSON: {exc}", file=sys.stderr)
        return 2
    if not isinstance(raw, dict):
        print("error: --params must be a JSON object", file=sys.stderr)
        return 2
    try:
        params = kind.validate(raw)
    except SweepValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    cache = None
    if args.cache_dir:
        from repro.service.cache import ResultCache

        cache = ResultCache(capacity=256, disk_dir=args.cache_dir)
    config = CoordinatorConfig(
        host=args.host,
        port=args.port,
        lease_ttl=args.lease_ttl,
        max_attempts=args.max_attempts,
        chunk_size=args.chunk_size,
        expected_workers=args.workers,
    )
    coordinator = Coordinator(
        kind.task(params, args.seed),
        kind.grid(params),
        config,
        cache=cache,
        frame=kind.make_frame(params),
    )
    with CoordinatorThread(coordinator):
        print(
            f"[cluster] run {coordinator.run_id}: serving {args.kind} "
            f"({coordinator.spec.n_points} points) at {coordinator.url}",
            file=sys.stderr,
        )
        try:
            result = coordinator.result(timeout=args.timeout)
        except ClusterError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except KeyboardInterrupt:
            print("[cluster] interrupted; shutting down", file=sys.stderr)
            return 130
        if result.telemetry is not None:
            print(f"[cluster] {result.telemetry.summary()}", file=sys.stderr)
        print(json.dumps(kind.assemble(params, result), sort_keys=True))
        sys.stdout.flush()
        if args.linger > 0:
            time.sleep(args.linger)  # let polling workers observe "done"
    return 0


def _cmd_cluster_work(args: argparse.Namespace) -> int:
    """Run one worker loop against a coordinator until the run ends."""
    from repro.cluster.worker import WorkerConfig, run_worker

    kwargs: dict[str, Any] = dict(
        coordinator=args.coordinator,
        jobs=args.jobs or 1,
        poll_interval=args.poll_interval,
        crash_after=args.crash_after,
    )
    if args.id:
        kwargs["worker_id"] = args.id
    summary = run_worker(WorkerConfig(**kwargs))
    print(
        f"[worker {summary['worker']}] state={summary['state']} "
        f"chunks={summary['chunks_completed']} points={summary['points_completed']} "
        f"errors={summary['chunks_errored']}",
        file=sys.stderr,
    )
    return 0 if summary["state"] in ("done", "stopped", "crashed") else 1


def _cmd_cluster(args: argparse.Namespace) -> int:
    handlers = {"coordinate": _cmd_cluster_coordinate, "work": _cmd_cluster_work}
    return handlers[args.cluster_command](args)


def _cmd_experiments_list(args: argparse.Namespace) -> int:
    """Print the per-figure experiment table for one quality tier."""
    from repro.experiments import EXPERIMENTS

    rows = []
    for spec in EXPERIMENTS.values():
        params = spec.params(args.quality)
        kind = SWEEP_KINDS[spec.kind]
        points = 1
        if kind.clusterable:
            points = len(kind.grid(params))
        rows.append([spec.figure, spec.kind, spec.section, points, len(spec.claims)])
    print(
        format_table(
            ["figure", "kind", "section", "points", "claims"],
            rows,
            title=f"experiments ({args.quality} tier)",
        )
    )
    return 0


def _cmd_experiments_run(args: argparse.Namespace) -> int:
    """Run the resumable all-figures pipeline.

    Stderr carries per-figure telemetry (cache hits vs computed chunks
    — the resume signal); stdout prints only the artifact paths, so
    scripts can capture them.
    """
    from pathlib import Path

    from repro.experiments import (
        ExperimentInterrupted,
        ExperimentsConfig,
        run_experiments,
    )
    from repro.experiments.manifest import ManifestMismatch

    figures = None
    if args.figures:
        figures = [f.strip() for f in args.figures.split(",") if f.strip()]
    try:
        result = run_experiments(
            ExperimentsConfig(
                out_dir=Path(args.out),
                quality=args.quality,
                seed=args.seed,
                jobs=args.jobs,
                cluster=args.cluster,
                figures=figures,
                lease_ttl=args.lease_ttl,
                chunk_target_seconds=args.chunk_target_seconds,
                crash_after_chunks=args.crash_after,
                elastic_depart_after=args.elastic_depart_after,
                elastic_join_after=args.elastic_join_after,
            )
        )
    except ManifestMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ExperimentInterrupted as exc:
        print(f"[experiments] interrupted: {exc}", file=sys.stderr)
        return 3
    print(result.report_md)
    print(result.report_json)
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    handlers = {"list": _cmd_experiments_list, "run": _cmd_experiments_run}
    return handlers[args.experiments_command](args)


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.service.loadgen import LoadGenConfig, run_loadgen_sync

    report = run_loadgen_sync(
        LoadGenConfig(
            host=args.host,
            port=args.port,
            path=args.path,
            concurrency=args.concurrency,
            duration=args.duration,
            warmup=args.warmup,
            profile=args.profile,
            batch_size=args.batch_size,
        )
    )
    print(report.summary())
    return 0 if report.requests > 0 and report.errors == 0 else 1


_HANDLERS = {
    "model": _cmd_model,
    "report": _cmd_report,
    "sizing": _cmd_sizing,
    "capacity": _cmd_capacity,
    "fig2a": _cmd_fig2a,
    "fig3": _cmd_fig3,
    "fig4a": _cmd_fig4a,
    "fig5": _cmd_fig5,
    "fig7": _cmd_fig7,
    "placement": _cmd_placement,
    "closed": _cmd_closed,
    "birthday": _cmd_birthday,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
    "cluster": _cmd_cluster,
    "experiments": _cmd_experiments,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
