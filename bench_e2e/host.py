"""Host facts, peak RSS, and the calibration slices that steady the timings.

The recording hosts are small shared VMs whose speed drifts by tens of
percent over tens of seconds.  Every run therefore interleaves short,
fixed *calibration slices* (a core-bound loop and a memory-bound one)
with its timed units and reports times scaled to the reference host:

    reference-host seconds = wall seconds / slowdown
    slowdown = sqrt(mean(py slices)/REF_PY * mean(obj slices)/REF_OBJ)

Raw wall seconds are kept beside every scaled number in the run record.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: ``bench_e2e/`` and the checkout it sits in.  The program under test is
#: ``<root>/src/repro``; a directory without it is not a checkout.
BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: The calibration slices and the seconds each took on the host the
#: reference numbers were recorded on (2-vCPU Xeon @ 2.1 GHz VM, quiet).
#: Constants: changing any of them rescales every reported time.
PY_SLICE_ITERATIONS = 200_000
REF_PY_SLICE_S = 0.0140
OBJ_SLICE_CELLS = 30_000
REF_OBJ_SLICE_S = 0.0150
STALL_CLIP = 2.5
NP_SLICE_ELEMENTS = 250_000
NP_SLICE_PASSES = 8


def py_slice() -> float:
    """Seconds for the core-bound slice: integer arithmetic, no containers."""
    start = time.perf_counter()
    acc = 0
    for i in range(PY_SLICE_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - start


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: tuple) -> None:
        self.a = a
        self.b = b


def obj_slice() -> float:
    """Seconds for the memory-bound slice: allocate, hash, chase pointers.

    A few MB of short-lived objects through a dict, like the program's
    RIBs and path caches; a busy neighbour on the shared cache slows
    this (and the program) more than it slows :func:`py_slice`.
    """
    # Collector off: a generation-2 pass would cost in proportion to the
    # program's live heap, and the slice must not depend on the program.
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(OBJ_SLICE_CELLS):
            table[(i % 5000, i % 7)] = _Cell(i, (i, i + 1))
        best = None
        for key, cell in table.items():
            rank = (cell.a % 13, len(cell.b), key)
            if best is None or rank < best:
                best = rank
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def np_slice() -> float:
    """Seconds for one numpy pass (recorded with the host block only)."""
    import numpy as np

    x = np.linspace(0.0, 1.0, NP_SLICE_ELEMENTS)
    start = time.perf_counter()
    for _ in range(NP_SLICE_PASSES):
        x = np.sqrt(x * x + 1.0)
    return time.perf_counter() - start


def clipped_mean(slices: list[float]) -> float:
    """Mean with each slice clipped at ``STALL_CLIP`` x the median.

    The mean tracks a host that is slow for seconds at a time (the
    median does not); the clip keeps one descheduled slice from skewing
    a whole run.
    """
    ceiling = STALL_CLIP * statistics.median(slices)
    return statistics.fmean(min(s, ceiling) for s in slices)


class Calibration:
    """The calibration slices of one run, grouped by the region they flank."""

    def __init__(self, slices_per_sample: int) -> None:
        self.slices_per_sample = slices_per_sample
        #: region -> slice kind -> seconds
        self.slices: dict[str, dict[str, list[float]]] = {}
        self.np: list[float] = []

    def sample(self, region: str) -> None:
        """Run one batch of slices and book it to ``region``."""
        bucket = self.slices.setdefault(region, {"py": [], "obj": []})
        for _ in range(self.slices_per_sample):
            bucket["py"].append(py_slice())
            bucket["obj"].append(obj_slice())
        self.np.append(np_slice())

    def adopt(self, region: str, slices: dict[str, list[float]]) -> None:
        """Fold in the slices a subprocess ran (same region)."""
        for kind, values in slices.items():
            self.slices[region][kind] += values

    def scale(self, region: str) -> float:
        """Multiply wall seconds measured in ``region`` by this.

        The geometric mean of the two slice kinds' slowdowns: the
        program is part interpreter-bound, part memory-bound, and on the
        recording host the blend tracked world builds and campaigns
        through slow phases better than either kind alone.
        """
        bucket = self.slices[region]
        slowdown = (clipped_mean(bucket["py"]) / REF_PY_SLICE_S) * (
            clipped_mean(bucket["obj"]) / REF_OBJ_SLICE_S
        )
        return slowdown**-0.5

    def median_slice_s(self, kind: str) -> float:
        return statistics.median(
            s for bucket in self.slices.values() for s in bucket[kind]
        )

    def np_slice_s(self) -> float:
        return statistics.median(self.np)


def peak_rss_mb(children: bool = False) -> float:
    """``ru_maxrss`` in MiB (Linux reports KiB)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def reap_children() -> None:
    """Stop every process this one started and wait until each has ended.

    ``multiprocessing``'s spawn context starts a resource tracker beside
    the pool workers.  It ends only when its pipe closes — after this
    process has exited — and is then left to init as a zombie, so it is
    stopped and waited for here.  Any other child still there (a path
    out by exception or SIGTERM) is killed and waited for.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()
    me = str(os.getpid())
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text(encoding="ascii")
        except OSError:
            continue
        # "pid (comm) state ppid ..."; comm may hold spaces and brackets.
        if stat.rpartition(")")[2].split()[1] != me:
            continue
        try:
            os.kill(int(entry), signal.SIGKILL)
            os.waitpid(int(entry), 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def git_rev() -> str:
    """Short rev of the checkout, or ``unknown`` outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def host_block(calibration: Calibration, workers: int) -> dict:
    """What every run record carries about the machine it ran on."""
    import numpy

    return {
        "cpus": os.cpu_count() or 1,
        "workers": workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_rev": git_rev(),
        "calib_py_s": calibration.median_slice_s("py"),
        "calib_obj_s": calibration.median_slice_s("obj"),
        "calib_np_s": calibration.np_slice_s(),
        "ref_slices_s": {"py": REF_PY_SLICE_S, "obj": REF_OBJ_SLICE_S},
    }


def require_checkout() -> None:
    """Exit non-zero where the program under test is absent."""
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        sys.exit(
            f"bench_e2e: {SRC_DIR / 'repro'} not found - run from a checkout "
            "of the repository (the benchmark measures src/repro)"
        )
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    # Spawned pool workers and the cold_medium subprocesses import repro
    # (and this package) by name.
    paths = [str(SRC_DIR), str(REPO_ROOT)]
    existing = os.environ.get("PYTHONPATH")
    if existing:
        paths.append(existing)
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
