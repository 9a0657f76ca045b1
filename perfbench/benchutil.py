"""Helpers shared by the benchmark's workloads.

Percentiles, op bookkeeping, run metadata and the lifecycle of the
child processes the benchmark starts (the figures worker and the HTTP
server).  Everything here is stdlib-only so that it imports in a
directory that holds only the benchmark.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path
from typing import Optional, Sequence

HERE = Path(__file__).resolve().parent

# A tail percentile is reported only when at least this many samples
# lie beyond it; with fewer, the "p99" of a run is one unlucky request.
MIN_TAIL_SAMPLES = 10
# A stopped child gets this many seconds after SIGINT before SIGKILL.
STOP_GRACE_S = 15.0
# A server must print its port and answer /healthz within this many seconds.
BOOT_TIMEOUT_S = 60.0
# SpeedProbe: one probe per this many seconds of process CPU, each a loop
# of PROBE_LOOP additions.  PROBE_REF_NS, the speed CPU times are rescaled
# to, is the loop's lowest-decile duration on a 2.1 GHz Xeon vCPU (the
# host at its least busy; its median there was 89 us).
PROBE_INTERVAL_S = 0.02
PROBE_LOOP = 2000
PROBE_REF_NS = 70_000.0


def median(values: Sequence[float]) -> Optional[float]:
    """Median of a sample; ``None`` for an empty one (every op failed)."""
    return statistics.median(values) if values else None


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-th percentile of ``values``.

    Returns ``None`` for a tail (``q > 50``) with fewer than
    :data:`MIN_TAIL_SAMPLES` samples beyond it.  The median needs no
    such margin.
    """
    if not 0 < q < 100:
        raise ValueError(f"q must be in (0, 100), got {q}")
    n = len(values)
    if n == 0:
        return None
    rank = max(1, math.ceil(q / 100 * n))
    if q > 50 and n - rank < MIN_TAIL_SAMPLES:
        return None
    return sorted(values)[rank - 1]


class OpLog:
    """Latencies per op class plus attempted/failed counts.

    A failed op (non-2xx, timeout or a failed output check) counts
    against the ops attempted and contributes no latency sample.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = {}
        self.errors: list[str] = []

    def ok(self, kind: str, seconds: float) -> None:
        """Record one successful op of class ``kind``."""
        self.attempted += 1
        self.samples.setdefault(kind, []).append(seconds)

    def succeeded(self, n: int) -> None:
        """Record ``n`` successful ops that carry no latency sample."""
        self.attempted += n

    def fail(self, reason: str) -> None:
        """Record one failed op."""
        self.attempted += 1
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(reason)

    def ms(self, *kinds: str) -> list[float]:
        """Latencies in milliseconds across the given op classes."""
        return [s * 1e3 for k in kinds for s in self.samples.get(k, ())]


@contextlib.contextmanager
def no_cyclic_gc():
    """Keep this process's cyclic garbage collector off inside the block.

    A client's op log grows through a run; collector passes over it get
    longer as it grows and would slow the client, and so the measured
    rate, more the longer the run.  Replies are kept as bytes, so
    reference counting frees the rest.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class SpeedProbe:
    """Samples how fast this vCPU runs Python while the program runs on it.

    Every :data:`PROBE_INTERVAL_S` of this process's CPU time a
    ``SIGPROF`` handler runs a fixed loop of :data:`PROBE_LOOP`
    additions on the main thread and keeps ``(end, duration)`` in
    nanoseconds: the end on the ``perf_counter_ns`` clock, which every
    process on the host shares, the duration in thread CPU.  The same
    work costs more CPU when the host is busy (another guest on the SMT
    sibling, a shared cache): ten ``fig7`` calls of the same size in one
    process took 1.0-1.9 CPU s each, and a figure's CPU rose and fell
    with the probe's duration (correlation 0.8-0.97 per figure).  Dividing a
    call's CPU by its probes' mean over :data:`PROBE_REF_NS` rescales it
    to a fixed host speed.  The loop is long enough (~70 us) that the
    program's own cache footprint barely moves it; the cost is ~0.4% of
    the CPU it samples.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[int, int]] = []

    def _tick(self, signum, frame) -> None:
        start = time.thread_time_ns()
        x = 0
        for i in range(PROBE_LOOP):
            x += i
        self.samples.append((time.perf_counter_ns(), time.thread_time_ns() - start))

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def take(self) -> list[tuple[int, int]]:
        """The samples since the last call, oldest first."""
        taken, self.samples = self.samples, []
        return taken


def probe_mean_ns(samples: Sequence[Sequence[int]], window: tuple[int, int]) -> float:
    """Mean duration of the probes that ended inside ``window``.

    With no such probe the host is taken to run at the reference speed.
    """
    durations = [d for end, d in samples if window[0] <= end <= window[1]]
    return statistics.fmean(durations) if durations else PROBE_REF_NS


def at_reference_speed(cpu_s: float, probe_ns: float) -> float:
    """``cpu_s`` spent while probes took ``probe_ns`` each, rescaled to :data:`PROBE_REF_NS`."""
    return cpu_s * PROBE_REF_NS / probe_ns


def source_digest(root: Path) -> str:
    """SHA-256 over ``src/**/*.py`` — identifies the code when git is absent."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root: Path) -> str:
    """The checkout's commit, or ``"unknown"`` outside a git repository."""
    if not (root / ".git").exists():  # never search directories above the checkout
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_metadata(root: Path, *, workload: str, seed: int, seconds: int,
                 trace: bool) -> dict:
    """Host and code facts recorded with every result (start-of-run part)."""
    import numpy  # the program's own dependency, present wherever it runs

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": git_commit(root),
        "source_digest": source_digest(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
    }


def cpu_seconds(pid: int) -> float:
    """User + system CPU time of a live process (all threads), in seconds.

    On a virtual machine that accounts steal time, this excludes the
    time the host ran someone else on our vCPU, which wall time does not.
    """
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def live_threads_cpu_seconds(pid: int) -> float:
    """CPU time of a live process's threads, in seconds, at nanosecond resolution.

    Sums ``/proc/<pid>/task/*/schedstat``; unlike :func:`cpu_seconds`
    it misses threads that already exited.  That is fine at boot, and
    around requests that start no thread, such as an idle poll.
    """
    total = 0
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            total += int((task / "schedstat").read_text().split()[0])
        except (FileNotFoundError, ProcessLookupError):
            pass  # the thread exited meanwhile
    return total / 1e9


def host_cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` jiffies of the whole host from ``/proc/stat``."""
    values = [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return values[7], sum(values)


def program_env(root: Path) -> dict[str, str]:
    """Environment for the program's processes: the checkout's ``src`` on the path."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    # One fixed string-hash seed: with a random one per process, dict and
    # set layouts differ from run to run and so does the server's CPU per
    # request (model_mix: 12% spread over ten runs, 4% with this fixed).
    env["PYTHONHASHSEED"] = "0"
    return env


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


class ChildProcess:
    """A child in its own process group, killed and reaped on every exit path.

    Use as a context manager.  ``readline`` reads the child's stdout
    with a deadline, so a hung child cannot hang the benchmark.
    """

    def __init__(self, cmd: Sequence[str], *, cwd: Path, env: dict[str, str],
                 stderr_path: Optional[Path] = None) -> None:
        self.cmd = list(cmd)
        self.cwd = cwd
        self.env = env
        self.stderr_path = stderr_path
        self.proc: Optional[subprocess.Popen] = None
        self.started_at = 0.0
        self._buf = b""

    def __enter__(self) -> "ChildProcess":
        stderr = open(self.stderr_path, "ab") if self.stderr_path else subprocess.DEVNULL
        try:
            self.started_at = time.perf_counter()
            self.proc = subprocess.Popen(
                self.cmd, cwd=self.cwd, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=stderr, start_new_session=True,
            )
        finally:
            if stderr is not subprocess.DEVNULL:
                stderr.close()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def pid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    def readline(self, timeout: float) -> str:
        """Next stdout line; raises ``TimeoutError`` or ``EOFError``."""
        assert self.proc is not None and self.proc.stdout is not None
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"no output from {self.cmd[:3]} within {timeout:g}s")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                raise EOFError(f"{self.cmd[:3]} closed stdout (exit {self.proc.poll()})")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return line.decode("utf-8", "replace")

    def wait(self, timeout: float) -> int:
        """Wait for a normal exit; raises ``subprocess.TimeoutExpired``."""
        assert self.proc is not None
        return self.proc.wait(timeout)

    def stop(self) -> None:
        """SIGINT the group, then SIGKILL it after :data:`STOP_GRACE_S`; always reaps."""
        proc = self.proc
        if proc is None:
            return
        try:
            if proc.poll() is None:
                _signal_group(proc.pid, signal.SIGINT)
                try:
                    proc.wait(STOP_GRACE_S)
                except subprocess.TimeoutExpired:
                    pass
            # Anything left in the group (the leader or a straggler) dies now.
            _signal_group(proc.pid, signal.SIGKILL)
            proc.wait()
        finally:
            if proc.stdout is not None:
                proc.stdout.close()


def _signal_group(pgid: int, sig: int) -> None:
    try:
        os.killpg(pgid, sig)
    except ProcessLookupError:
        pass


class ServerProcess(ChildProcess):
    """``repro serve --port 0`` (or the tracing launcher) as a child.

    Entering parses the bound port from the ``listening on`` line and
    polls ``/healthz`` until it answers 200; ``setup_s`` is the wall
    time from spawn to that first 200 and ``setup_cpu_s`` the CPU time
    the server spent until then.
    """

    def __init__(self, cmd: Sequence[str], *, cwd: Path, env: dict[str, str],
                 stderr_path: Optional[Path] = None) -> None:
        super().__init__(cmd, cwd=cwd, env=env, stderr_path=stderr_path)
        self.port = 0
        self.setup_s = 0.0
        self.setup_cpu_s = 0.0

    def __enter__(self) -> "ServerProcess":
        super().__enter__()
        try:
            self._boot()
        except BaseException:
            self.stop()
            raise
        return self

    def _boot(self) -> None:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while True:
            line = self.readline(max(0.1, deadline - time.monotonic()))
            if "listening on http://" in line:
                address = line.split("listening on http://", 1)[1].split()[0]
                self.port = int(address.rsplit(":", 1)[1])
                break
        url = f"http://127.0.0.1:{self.port}/healthz"
        while True:
            try:
                with urllib.request.urlopen(url, timeout=5) as resp:
                    if resp.status == 200:
                        break
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise TimeoutError(f"server on port {self.port} never became healthy")
            time.sleep(0.005)
        self.setup_s = time.perf_counter() - self.started_at
        self.setup_cpu_s = live_threads_cpu_seconds(self.pid)


def serve_command(probes_out: Optional[Path] = None,
                  spans_out: Optional[Path] = None) -> list[str]:
    """Plain ``repro serve``, or the launcher with a speed probe (and span wrappers)."""
    if probes_out is None:
        return [sys.executable, "-m", "repro", "serve", "--port", "0"]
    cmd = [sys.executable, str(HERE / "launch_server.py"), "--probes-out", str(probes_out)]
    return cmd + (["--spans-out", str(spans_out)] if spans_out else [])


def server_setup_times(root: Path, env: dict[str, str], probes: int,
                       stderr_path: Optional[Path] = None) -> list[tuple[float, float]]:
    """Boot and stop ``probes`` throwaway servers; their ``(wall, cpu)`` set-up times."""
    times = []
    for _ in range(probes):
        with ServerProcess(serve_command(), cwd=root, env=env,
                           stderr_path=stderr_path) as server:
            times.append((server.setup_s, server.setup_cpu_s))
    return times


def dumps_canonical(value) -> str:
    """Canonical JSON: the byte form two results are compared in."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)
