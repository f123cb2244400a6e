"""Store building, child-process targets and /proc accounting.

Targets are the shipped CLIs (``python -m repro.server``,
``python -m repro.cluster``) at their default cache/worker/queue
settings, started on ``--port 0`` and reaped on every exit path.
"""

from __future__ import annotations

import atexit
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

from corpus import UNIVERSE, Corpus

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_DIR = REPO_ROOT / "src"

_CLK_TCK = os.sysconf("SC_CLK_TCK")
#: The cores this run may use, read before anything is pinned.
_CORES = sorted(os.sched_getaffinity(0))
_STARTUP_TIMEOUT_S = 60.0


class TargetDied(RuntimeError):
    """A child server or router exited while the workload still needed it."""


def require_program() -> None:
    """Put the checkout's ``src`` first on ``sys.path`` or fail loudly.

    The benchmark measures the checkout it sits in, never an installed
    copy, so a directory without the program is an error, not a skip.
    """
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        raise SystemExit(f"benchmark needs the program under {SRC_DIR}; not found")
    sys.path.insert(0, str(SRC_DIR))


def pin_harness() -> None:
    """Pin this process to the last core; ``Children.start`` pins child
    *k* to core ``k mod n``.

    Left to float, the scheduler sometimes spreads a server's event-loop
    and executor threads over two cores and sometimes keeps them on one;
    the spread costs ≈ 10 % more CPU per query (the GIL crosses cores on
    every hand-off) and one run in two to eight lands in it, which is the
    whole run-to-run spread of ``cpu_ms_per_query``.  A Python process
    holds one GIL, so one core each takes nothing from it.
    """
    os.sched_setaffinity(0, {_CORES[-1]})


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    return env


def build_store(corpus: Corpus, codec: str, directory: str) -> None:
    """Compress every list under *codec* and save the v3 mapped layout."""
    from repro.store import PostingStore

    store = PostingStore()
    for shard in corpus.shards:
        sh = store.create_shard(shard, codec=codec, universe=UNIVERSE)
        for term in corpus.terms:
            sh.add(term, corpus.lists[(shard, term)])
    store.save(directory, mapped=True)


def dir_bytes(directory: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(directory)
        for name in names
    )


# ----------------------------------------------------------------------
# /proc accounting
# ----------------------------------------------------------------------
def cpu_seconds(pid: int) -> float:
    """user+sys CPU of one process so far (``/proc/<pid>/stat``)."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of one process in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
class Children:
    """Every child this run started; ``reap()`` is safe to call twice."""

    def __init__(self) -> None:
        self._procs: list[subprocess.Popen] = []
        atexit.register(self.reap)

    def start(self, module: str, *args: str) -> subprocess.Popen:
        """Start ``python -m <module> args…`` without waiting for it."""
        proc = subprocess.Popen(
            [sys.executable, "-m", module, *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=child_env(),
            cwd=str(REPO_ROOT),
        )
        os.sched_setaffinity(proc.pid, {_CORES[len(self._procs) % len(_CORES)]})
        self._procs.append(proc)
        return proc

    def listening(self, proc: subprocess.Popen) -> str:
        """Block until *proc* prints its bound address; return the URL.

        The CLIs print one JSON line once they listen; that line is the
        readiness signal.
        """
        assert proc.stdout is not None
        fd = proc.stdout.fileno()
        deadline = time.monotonic() + _STARTUP_TIMEOUT_S
        buf = b""
        while b"\n" not in buf:
            if time.monotonic() > deadline:
                raise TargetDied(f"child did not listen within {_STARTUP_TIMEOUT_S}s")
            if select.select([fd], [], [], 0.05)[0]:
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise TargetDied(f"child exited with {proc.wait()} before listening")
                buf += chunk
        return json.loads(buf.splitlines()[0])["listening"]

    def check_alive(self) -> None:
        for proc in self._procs:
            if proc.poll() is not None:
                raise TargetDied(f"child pid {proc.pid} exited with {proc.returncode} mid-run")

    def pids(self) -> list[int]:
        return [p.pid for p in self._procs if p.poll() is None]

    def kill(self, proc: subprocess.Popen) -> None:
        """SIGKILL one child (the crash the durability check needs)."""
        proc.send_signal(signal.SIGKILL)
        proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
        self._procs.remove(proc)

    def reap(self) -> None:
        procs, self._procs = self._procs, []
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()


def wait_healthy(url: str) -> None:
    """Block until ``GET /healthz`` answers ok."""
    from repro.api import connect

    deadline = time.monotonic() + _STARTUP_TIMEOUT_S
    while True:
        try:
            with connect(url, max_retries=0, timeout_s=2.0) as probe:
                if probe.healthz().get("status") == "ok":
                    return
        except Exception:  # noqa: BLE001 - any failure means "not up yet"
            pass
        if time.monotonic() > deadline:
            raise TargetDied(f"{url} never became healthy")
        time.sleep(0.01)
