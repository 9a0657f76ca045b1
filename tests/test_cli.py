"""Tests for the command-line interface."""

from __future__ import annotations

import hashlib
import http.client
import json
import sys

import pytest

from repro.cli import build_parser, main, version_string

# SHA-256 of ``repro <path> --help`` at COLUMNS=80, as Python 3.11's
# argparse lays it out.  The figure subcommands build their flags from
# the sweep-kind table; these pins keep that table's help byte-identical
# to the hand-written parser it replaced.
HELP_DIGESTS = {
    (): "4628edd2bbe04b05bed49427b6fcaffc177e140fab6973108a6de1d15d51afd2",
    ("birthday",): "1eb470c4ef8905a9b7be5c7d535ab0063bf2f93bec181ceb8164a99ef09c24c6",
    ("capacity",): "841dc722bc7b8af6762c5a3a2644e47ef201d97f0da443cf835423b5f9eb9a78",
    ("closed",): "6fe083a0136fc9f509c57e59d8953d5b21707ba32cf25b414e5f584f7ca34d03",
    ("cluster",): "f2b3d7c96a0d728e978199e332e0d187be90b01ba50e7748b14774cca4efe08d",
    ("cluster", "coordinate"): "4c40e8ed2ef97b8bee2c5600221fd660e38244ac32927b0be500cb29458e260e",
    ("cluster", "work"): "7cf3910c9dfc30799b3d978bb481c555bfc28869a2b677b8192e58b2e35e6124",
    ("experiments",): "4fa8c90f01981f569847006ab0ce42e28d9e1b9f45f194f64497570095c2380d",
    ("experiments", "list"): "60f1ea368938edb7236ad9a6c57d73089a6e2b1de9ea45f470cdc378521403a6",
    # ``experiments run`` without ``--chunk-target-seconds``.
    ("experiments", "run"): "29b148a9e90020e02d2492385f6d81308341d2ced5caf02a7f61c649a862fccc",
    ("fig2a",): "a3acfbfebdfd6f9f18cce5373ab5148d7c2a628813a61fd4f0327825e6c036de",
    ("fig3",): "ee71457b7c12a85da4f53169ffbae256b40f3290e596465ee33b62955bcd6ff7",
    ("fig4a",): "91ab6426ee075435012bcb1cc123049a7ea3e00371e7f9d08d91f5bc5c87c3a4",
    ("fig5",): "104b08a470329cc3f0836bf2effb36b3655243cf180d7dbf4887b14dc05c9186",
    ("fig7",): "94b31476d42cda6aa3f739ee5136cde6c09429784f2c3b8c37db20a410eb5add",
    ("loadgen",): "c8be69c09dc695c9952d2fe12a0ce701f40c05a66bf6f701775de7022fa60861",
    ("model",): "e72432eee35b684e79881dd7e97a644caf7acb5f9917de9fdb001b4fa7aa9725",
    ("placement",): "aef94f82c4c2b8423e135ad6b01134af1d53dbc1250561c31ef3c71611bc205f",
    ("serve",): "f01d6fef62f1fb10fb61beb3b1aff6408cf704bc9d2f7c97ec6ed197421aa77b",
    ("sizing",): "fb80328cc75aafed3b0e647a30b219357ad934165d27068a7b862a43cfcd9bea",
}

# Each figure subcommand at small args and ``--seed 3``, with every flag
# it takes set off its default, and the SHA-256 of its stdout.
FIGURE_RUNS = {
    "fig2a": (["fig2a", "--samples", "20", "--threads", "3", "--accesses", "20000"],
              "4949b21124c124288bade7eac1d6587e33664192b9e20a47c885bff084b57282"),
    "fig3": (["fig3", "--traces", "1", "--victim", "2"],
             "3a2b47ede336ec44315331b4bb39bf434aef3aa93c3ed252a7c03f6c5f0db230"),
    "fig4a": (["fig4a", "--samples", "50"],
              "87502d72c1e6437934c8b2263472e7de6a84781c86fd6c408f5395ccfe7af959"),
    "closed": (["closed", "--n", "1024", "--c", "4", "--w", "8", "--alpha", "1"],
               "f75b1a60869e04b6be648943a1c788d831c675f598b27c9581eb33bb6e093698"),
    "fig5": (["fig5", "--c", "3", "--alpha", "1"],
             "6cb0af838160efceeba78e6c66aa44caad8dcd114f3a9ce45a386f03ce3e3cf1"),
    "placement": (["placement", "--samples", "20", "--w", "6", "--objects", "128",
                   "--skew", "1.5"],
                  "5a7a308ae23dc730767a6e1dd16b754922a324b22901d2c6fb828e7b8e9fbfae"),
    "fig7": (["fig7", "--rounds", "6", "--placement", "bump", "--hash", "xorfold",
              "--c", "3"],
             "db123178ba0bcc9111fb1ca19b3be5b9dd4d82a116364f71994602f93cad1e8f"),
}

_FIG5_GRID = {"n_values": [1024, 4096, 16384], "w_values": [8, 12, 16, 20]}

# Bad figure flags and the ``POST /v1/sweeps`` body that asks for the
# same sweep: the CLI must refuse both with one message.
BAD_FLAGS = [
    (["closed", "--n", "1024", "--c", "0"],
     {"kind": "closed", "params": {"n_values": [1024], "c_values": [0]}}),
    (["closed", "--n", "1024", "--c", "64"],
     {"kind": "closed", "params": {"n_values": [1024], "c_values": [64]}}),
    (["closed", "--n", "1024", "--alpha", "2.5"],
     {"kind": "closed", "params": {"n_values": [1024], "alpha": 2.5}}),
    (["fig5", "--c", "64"],
     {"kind": "closed", "params": {**_FIG5_GRID, "c_values": [64]}}),
    (["fig7", "--hash", "nope"],
     {"kind": "fig7", "params": {"hash_kind": "nope"}}),
    (["placement", "--skew", "9"],
     {"kind": "placement", "params": {"skew": 9.0}}),
    (["placement", "--skew", "nan"],
     {"kind": "placement", "params": {"skew": float("nan")}}),
]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_model_args(self):
        args = build_parser().parse_args(["model", "--w", "20", "--n", "4096"])
        assert args.command == "model"
        assert args.w == 20
        assert args.c == 2  # default

    def test_global_seed(self):
        args = build_parser().parse_args(["--seed", "7", "birthday"])
        assert args.seed == 7


class TestCommands:
    def test_model(self, capsys):
        assert main(["model", "--w", "20", "--n", "4096"]) == 0
        out = capsys.readouterr().out
        assert "commit probability" in out
        assert "0.48" in out  # raw Eq. 8 value for these params

    def test_sizing_reproduces_paper(self, capsys):
        assert main(["sizing", "--w", "71", "--commit", "0.95", "--c", "8"]) == 0
        assert "14,114,800" in capsys.readouterr().out

    def test_birthday(self, capsys):
        assert main(["birthday"]) == 0
        assert "23 people" in capsys.readouterr().out

    def test_birthday_custom_days(self, capsys):
        assert main(["birthday", "--days", "1000", "--target", "0.5"]) == 0
        assert "1000 days" in capsys.readouterr().out

    def test_closed(self, capsys):
        assert main(["closed", "--n", "4096", "--c", "2", "--w", "5"]) == 0
        out = capsys.readouterr().out
        assert "conflicts" in out
        assert "actual concurrency" in out

    def test_fig4a_small(self, capsys):
        assert main(["fig4a", "--samples", "100"]) == 0
        out = capsys.readouterr().out
        assert "N=512" in out and "N=4096" in out

    def test_fig2a_small(self, capsys):
        assert main(["fig2a", "--samples", "50", "--accesses", "20000"]) == 0
        assert "Figure 2(a)" in capsys.readouterr().out

    def test_fig3_small(self, capsys):
        assert main(["fig3", "--traces", "2"]) == 0
        out = capsys.readouterr().out
        assert "AVG" in out and "bzip2" in out

    def test_placement_small(self, capsys):
        assert main([
            "placement", "--samples", "20", "--w", "6", "--objects", "128",
        ]) == 0
        out = capsys.readouterr().out
        assert "Placement sensitivity" in out
        assert "slab/mask" in out and "bump/mask" in out

    def test_fig7_small(self, capsys):
        assert main(["fig7", "--rounds", "6", "--c", "3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out
        assert "tagless" in out and "tagged" in out
        assert "false conflicts" in out

    def test_error_exit_code(self, capsys):
        # commit probability of 1.0 is invalid -> ValueError -> exit 2
        assert main(["sizing", "--w", "71", "--commit", "1.0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "birthday"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert "23 people" in proc.stdout

    def test_deterministic_across_runs(self, capsys):
        main(["--seed", "5", "closed", "--n", "2048", "--c", "4", "--w", "8"])
        first = capsys.readouterr().out
        main(["--seed", "5", "closed", "--n", "2048", "--c", "4", "--w", "8"])
        second = capsys.readouterr().out
        assert first == second


class TestNoEngineFlag:
    """Every sweep runs the fast engine; no subcommand takes ``--engine``."""

    @pytest.mark.parametrize(
        "command", ["fig2a", "fig3", "fig4a", "closed", "fig5", "experiments"]
    )
    def test_help_names_no_engine(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "--engine" not in capsys.readouterr().out

    def test_fig5_engine_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fig5", "--engine", "fast"])
        assert exc.value.code == 2
        assert "--engine" in capsys.readouterr().err

    def test_fig5_runs(self, capsys):
        assert main(["fig5"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5(a)" in out and "N=1024" in out and "N=16384" in out

    def test_coordinate_engine_param_exits_2(self, capsys):
        argv = ["cluster", "coordinate", "--params", '{"engine": "fast"}', "--port", "0"]
        assert main(argv) == 2
        assert "unknown parameter(s): engine" in capsys.readouterr().err


class TestInterrupt:
    def test_ctrl_c_prints_one_line_and_exits_130(self, capsys, monkeypatch):
        from repro import cli

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._HANDLERS, "fig4a", interrupted)
        assert main(["fig4a", "--samples", "100"]) == 130
        captured = capsys.readouterr()
        assert captured.err == "interrupted\n"
        assert captured.out == ""

    def test_sigint_mid_pool_run_leaves_no_workers(self, capsys, monkeypatch):
        import multiprocessing
        import signal

        from repro import cli

        def sigint(done, total):  # Ctrl-C once the first chunk settles
            signal.raise_signal(signal.SIGINT)

        monkeypatch.setattr(cli, "_progress_line", sigint)
        assert main(["fig4a", "--samples", "100", "--jobs", "2"]) == 130
        captured = capsys.readouterr()
        assert captured.err == "interrupted\n"
        assert captured.out == ""
        assert multiprocessing.active_children() == []


class TestVersionFlag:
    def test_version_string_matches_package(self):
        import repro

        assert version_string() == repro.__version__

    def test_version_flag_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {version_string()}" in capsys.readouterr().out

    def test_module_entry_point_version(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--version"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert version_string() in proc.stdout


class TestProgressLine:
    """The \\r progress line must not pollute non-TTY stderr."""

    def test_suppressed_when_stderr_not_a_tty(self, capsys, monkeypatch):
        import sys as _sys

        from repro.cli import _progress_line

        monkeypatch.setattr(_sys.stderr, "isatty", lambda: False, raising=False)
        _progress_line(1, 4)
        _progress_line(4, 4)
        assert capsys.readouterr().err == ""

    def test_printed_when_stderr_is_a_tty(self, capsys, monkeypatch):
        import sys as _sys

        from repro.cli import _progress_line

        monkeypatch.setattr(_sys.stderr, "isatty", lambda: True, raising=False)
        _progress_line(2, 4)
        err = capsys.readouterr().err
        assert "\r[sweep] 2/4 points" in err
        assert not err.endswith("\n")

    def test_final_point_ends_the_line(self, capsys, monkeypatch):
        import sys as _sys

        from repro.cli import _progress_line

        monkeypatch.setattr(_sys.stderr, "isatty", lambda: True, raising=False)
        _progress_line(4, 4)
        assert capsys.readouterr().err.endswith("\n")

    def test_parallel_cli_stderr_is_line_clean(self, capsys):
        # Under pytest, stderr is not a TTY: a parallel sweep must emit
        # only whole telemetry lines, never carriage returns.
        assert main(["fig4a", "--samples", "30", "--jobs", "2"]) == 0
        err = capsys.readouterr().err
        assert "\r" not in err
        assert "[sweep]" in err  # the telemetry summary still appears


class TestServeAndLoadgenParsing:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.port == 8642
        assert args.workers == 2
        assert args.queue_capacity == 16
        assert args.cache_dir is None

    def test_serve_custom(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--workers", "4", "--queue-capacity", "32",
             "--job-timeout", "60", "--cache-dir", "/tmp/repro-cache"]
        )
        assert args.port == 0
        assert args.workers == 4
        assert args.queue_capacity == 32
        assert args.job_timeout == 60.0
        assert args.cache_dir == "/tmp/repro-cache"

    def test_loadgen_requires_port(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["loadgen"])

    def test_loadgen_defaults(self):
        args = build_parser().parse_args(["loadgen", "--port", "8642"])
        assert args.concurrency == 8
        assert args.duration == 5.0
        assert args.path.startswith("/v1/model/conflict")
        assert args.profile == "scalar"
        assert args.batch_size == 256

    def test_loadgen_profile_flags(self):
        args = build_parser().parse_args(
            ["loadgen", "--port", "8642", "--profile", "batch", "--batch-size", "64"]
        )
        assert args.profile == "batch"
        assert args.batch_size == 64
        with pytest.raises(SystemExit):
            build_parser().parse_args(["loadgen", "--port", "8642",
                                       "--profile", "warp"])

    def test_loadgen_against_live_service(self, capsys):
        from repro.service import ServiceConfig, start_in_thread

        svc = start_in_thread(ServiceConfig(port=0))
        try:
            code = main(
                ["loadgen", "--port", str(svc.port), "--duration", "0.3",
                 "--warmup", "0.1", "--concurrency", "2"]
            )
        finally:
            svc.stop()
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput:" in out
        assert "p99=" in out

    def test_loadgen_batch_profile_against_live_service(self, capsys):
        from repro.service import ServiceConfig, start_in_thread

        svc = start_in_thread(ServiceConfig(port=0))
        try:
            code = main(
                ["loadgen", "--port", str(svc.port), "--duration", "0.3",
                 "--warmup", "0.1", "--concurrency", "2",
                 "--profile", "batch", "--batch-size", "32"]
            )
        finally:
            svc.stop()
        assert code == 0
        out = capsys.readouterr().out
        # Batch requests carry 32 points each, so the points line appears.
        assert "points:" in out


class TestCapacityCommand:
    def test_capacity_requires_flags(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["capacity"])

    def test_capacity_defaults(self):
        args = build_parser().parse_args(["capacity", "--w", "71",
                                          "--commit", "0.95"])
        assert args.command == "capacity"
        assert args.c == 2
        assert args.alpha == 2.0

    def test_capacity_prints_pow2_provisioning(self, capsys):
        assert main(["capacity", "--w", "71", "--commit", "0.95",
                     "--c", "8"]) == 0
        out = capsys.readouterr().out
        assert "14,114,800" in out
        assert "2^24" in out
        assert "16,777,216" in out

    def test_capacity_overflow_is_clean_error(self, capsys):
        code = main(["capacity", "--w", "1000000000",
                     "--commit", "0.999999999999999", "--c", "64"])
        assert code != 0


class TestJobsFlag:
    """--jobs parallelizes sweeps without changing a byte of stdout."""

    def test_fig4a_jobs_matches_serial(self, capsys):
        assert main(["fig4a", "--samples", "60"]) == 0
        serial = capsys.readouterr().out
        assert main(["fig4a", "--samples", "60", "--jobs", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.out == serial
        # observability goes to stderr only
        assert "[sweep]" in captured.err

    def test_closed_jobs_matches_serial(self, capsys):
        argv = ["closed", "--n", "1024", "--c", "2", "--w", "5"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_jobs_one_runs_serially(self, capsys):
        assert main(["fig4a", "--samples", "30"]) == 0
        serial = capsys.readouterr().out
        assert main(["fig4a", "--samples", "30", "--jobs", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.out == serial
        assert "[sweep]" not in captured.err  # no pool, so no telemetry

    def test_fig4a_cluster_with_jobs_matches_serial(self, capsys):
        assert main(["fig4a", "--samples", "30"]) == 0
        serial = capsys.readouterr().out
        assert main(["fig4a", "--samples", "30", "--cluster", "2", "--jobs", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.out == serial
        assert "workers=" in captured.err

    def test_experiments_run_accepts_jobs(self, capsys):
        assert build_parser().parse_args(["experiments", "run", "--jobs", "4"]).jobs == 4

    @pytest.mark.parametrize("value", ["0", "-1", "-4"])
    def test_non_positive_jobs_rejected(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig4a", "--jobs", value])
        assert excinfo.value.code == 2
        assert "argument --jobs: must be >= 1" in capsys.readouterr().err

    def test_non_integer_jobs_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig4a", "--jobs", "two"])
        assert excinfo.value.code == 2
        assert "invalid" in capsys.readouterr().err

    def test_jobs_defaults_to_serial(self):
        for command in (["fig2a"], ["fig3"], ["fig4a"], ["closed", "--n", "64"],
                        ["experiments", "run"]):
            assert build_parser().parse_args(command).jobs is None


class TestExperiments:
    def test_report_subcommand_is_gone(self, capsys):
        # ``experiments run`` writes the one reproduction report.
        with pytest.raises(SystemExit) as exc:
            main(["report"])
        assert exc.value.code == 2
        assert "invalid choice: 'report'" in capsys.readouterr().err

    def test_list_shows_every_figure(self, capsys):
        from repro.experiments import EXPERIMENTS

        assert main(["experiments", "list"]) == 0
        out = capsys.readouterr().out
        for figure in EXPERIMENTS:
            assert figure in out

    def test_run_defaults(self):
        args = build_parser().parse_args(["experiments", "run"])
        assert args.quality == "smoke"
        assert args.out == "experiments-out"
        assert args.jobs is None and args.cluster is None

    def test_run_and_resume_round_trip(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        argv = [
            "--seed", "7", "experiments", "run",
            "--out", out, "--figures", "fig4a,model",
        ]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "report.md" in first.out and "report.json" in first.out
        md = (tmp_path / "run" / "report.md").read_bytes()

        assert main(argv) == 0  # resume: all chunks cached, same bytes
        second = capsys.readouterr()
        assert "chunks cached" in second.err
        assert (tmp_path / "run" / "report.md").read_bytes() == md

    def test_mismatched_resume_exits_2(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        base = ["experiments", "run", "--out", out, "--figures", "model"]
        assert main(["--seed", "7"] + base) == 0
        capsys.readouterr()
        assert main(["--seed", "8"] + base) == 2
        assert "fresh output dir" in capsys.readouterr().err

    def test_injected_interrupt_exits_3(self, tmp_path, capsys):
        argv = [
            "experiments", "run", "--out", str(tmp_path / "run"),
            "--figures", "fig4a", "--crash-after", "1",
        ]
        assert main(argv) == 3
        assert "interrupted" in capsys.readouterr().err


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="help digests are pinned as Python 3.11's argparse lays them out")
class TestHelpPinned:
    @pytest.mark.parametrize("path", sorted(HELP_DIGESTS), ids=lambda p: " ".join(p) or "repro")
    def test_help_is_byte_identical(self, path, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main([*path, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert _sha256(out) == HELP_DIGESTS[path], out

    def test_every_subcommand_is_pinned(self):
        parser = build_parser()
        (sub,) = [a for a in parser._actions if a.dest == "command"]
        paths = {(name,) for name in sub.choices}
        for name in ("cluster", "experiments"):
            (nested,) = [a for a in sub.choices[name]._actions if a.choices]
            paths |= {(name, child) for child in nested.choices}
        assert paths | {()} == set(HELP_DIGESTS)


class TestFigureStdoutPinned:
    """Every figure subcommand prints the same bytes in every mode."""

    @pytest.mark.parametrize("mode", [[], ["--jobs", "2"], ["--cluster", "2"]],
                             ids=["serial", "jobs2", "cluster2"])
    @pytest.mark.parametrize("name", sorted(FIGURE_RUNS))
    def test_stdout_is_byte_identical(self, name, mode, capsys):
        argv, digest = FIGURE_RUNS[name]
        assert main(["--seed", "3", *argv, *mode]) == 0
        out = capsys.readouterr().out
        assert _sha256(out) == digest, out


@pytest.fixture(scope="module")
def service_port():
    from repro.service import ServiceConfig, start_in_thread

    svc = start_in_thread(ServiceConfig(port=0))
    yield svc.port
    svc.stop()


class TestErrorParity:
    """A bad figure flag fails with the message ``POST /v1/sweeps`` gives."""

    @pytest.mark.parametrize("argv,body", BAD_FLAGS,
                             ids=[" ".join(argv) for argv, _ in BAD_FLAGS])
    def test_cli_error_is_the_service_400(self, argv, body, service_port, capsys):
        conn = http.client.HTTPConnection("127.0.0.1", service_port, timeout=30)
        try:
            conn.request("POST", "/v1/sweeps", body=json.dumps(body),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            status, detail = response.status, json.loads(response.read())["error"]
        finally:
            conn.close()
        assert status == 400
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {detail}\n"
        assert captured.out == ""
