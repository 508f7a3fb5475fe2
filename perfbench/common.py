"""Helpers shared by the serving and build workloads of the benchmark.

Everything here observes the program from outside: process statistics come
from ``/proc``, spans are recorded by the benchmark around public calls, and
the environment stamp reads only files inside the checkout.
"""

from __future__ import annotations

import ctypes
import errno
import os
import platform
import signal
import time
from pathlib import Path

import numpy as np

from repro.obs import BuildProfile, Span

ROOT = Path(__file__).resolve().parent.parent

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def git_sha(root: Path = ROOT) -> str:
    """The checked-out commit, read from ``.git`` without running git (which
    would search parent directories when the checkout is not a repository)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "git_sha": git_sha(),
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
    }


def draw_patterns(rng: np.random.Generator, symbols, lengths) -> list[str]:
    """One pattern per entry of ``lengths``, uniform over ``symbols``."""
    alphabet = np.array(sorted(symbols))
    return ["".join(alphabet[rng.integers(len(alphabet), size=int(n))]) for n in lengths]


def cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` jiffies of the machine since boot (``/proc/stat``);
    steal is time a hypervisor gave this machine's CPUs to someone else."""
    fields = [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return fields[7], sum(fields[:8])


def percentile_ms(latencies, q: float) -> float:
    """The ``q``-th percentile of ``latencies`` (seconds) in ms; 0 when a
    run answered nothing correctly (its failures fail the run anyway)."""
    return float(np.percentile(np.asarray(latencies), q)) * 1e3 if len(latencies) else 0.0


def median(values) -> float:
    return float(np.median(np.asarray(values))) if len(values) else 0.0


# ----------------------------------------------------------------------
# Process-tree statistics
# ----------------------------------------------------------------------
def process_tree(pid: int) -> list[int]:
    """``pid`` and every live descendant (via ``/proc/<pid>/task/*/children``)."""
    tree, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        tree.append(current)
        try:
            tasks = list(Path(f"/proc/{current}/task").iterdir())
        except OSError:
            continue
        for task in tasks:
            try:
                frontier.extend(int(c) for c in (task / "children").read_text().split())
            except OSError:
                pass
    return tree


def tree_cpu_seconds(pid: int) -> float:
    """User+system CPU seconds of the live process tree rooted at ``pid``."""
    total = 0
    for member in process_tree(pid):
        try:
            stat = Path(f"/proc/{member}/stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesised command name; utime, stime are 14, 15.
        fields = stat.rsplit(")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])
    return total / _CLOCK_TICKS


def tree_pss_mb(pid: int) -> float:
    """Proportional set size of the process tree rooted at ``pid``, in MB."""
    kilobytes = 0
    for member in process_tree(pid):
        try:
            rollup = Path(f"/proc/{member}/smaps_rollup").read_text()
        except OSError:
            continue
        for line in rollup.splitlines():
            if line.startswith("Pss:"):
                kilobytes += int(line.split()[1])
                break
    return kilobytes / 1024.0


# ----------------------------------------------------------------------
# Descendants
# ----------------------------------------------------------------------
_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Make this process the reaper of its orphaned descendants.

    A server's router spawns workers and a ``multiprocessing`` resource
    tracker; when the router exits they are re-parented to the nearest
    subreaper, and without one to PID 1, which may never reap them.  With
    this set, :func:`reap_descendants` can wait for every one of them.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def _children() -> list[int]:
    children = []
    for task in Path(f"/proc/{os.getpid()}/task").iterdir():
        try:
            children.extend(int(c) for c in (task / "children").read_text().split())
        except OSError:
            pass
    return children


def reap_descendants(grace_s: float = 10.0) -> None:
    """Wait until every child (orphaned descendants included, see
    :func:`become_subreaper`) has ended and been reaped; SIGKILL whatever
    still runs after ``grace_s`` seconds."""
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except OSError as error:
                    if error.errno != errno.ESRCH:
                        raise
        time.sleep(0.01)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class SpanLog:
    """Spans the benchmark records around public calls, on any thread.

    Each thread appends to its own root :class:`~repro.obs.Span`; the
    Chrome export reuses :meth:`BuildProfile.chrome_trace` on one combined
    tree and then assigns every event the thread that recorded it.
    """

    def __init__(self, name: str) -> None:
        self.root = Span(name, {})
        self.root.start_wall = time.perf_counter()

    def thread_root(self, thread: int) -> Span:
        root = Span(f"thread-{thread}", {"thread": thread})
        root.start_wall = time.perf_counter()
        self.root.children.append(root)
        return root

    def record(self, parent: Span, name: str, start: float, end: float, **attrs) -> None:
        span = Span(name, attrs)
        span.start_wall = start
        span.wall_seconds = end - start
        parent.children.append(span)

    def chrome_trace(self) -> dict:
        """Chrome trace-event JSON of every span recorded so far."""
        for root in [self.root, *self.root.children]:
            if not root.wall_seconds:  # roots opened here have no end yet
                end = max((s.start_wall + s.wall_seconds for s in _walk(root)),
                          default=root.start_wall)
                root.wall_seconds = end - root.start_wall
        trace = BuildProfile(self.root).chrome_trace()
        thread = 0
        for event in trace["traceEvents"]:
            event["cat"] = "perfbench"
            thread = event["args"].get("thread", thread)
            event["tid"] = thread
        return trace


def _walk(span: Span):
    for child in span.children:
        yield child
        yield from _walk(child)
