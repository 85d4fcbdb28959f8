"""Shared measurement helpers: set-up probe, percentiles, pins, results."""

from __future__ import annotations

import bisect
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS_PATH = HERE / "pins.json"
#: Scratch space for trace dumps and daemon stores, inside the checkout.
WORK_DIR = ROOT / ".perfbench"

#: Fresh interpreters per run for ``setup_s``; the median is reported.
SETUP_SAMPLES = 5
_SETUP_PROBE = (
    "import time; t = time.perf_counter(); import repro.api; "
    "i = time.perf_counter() - t; repro.api.Session(); print(i, flush=True)"
)


#: Host-speed calibration.  On a shared host the speed of a core can
#: drift by 10-35% over seconds to minutes (other tenants share it),
#: which swamps the differences a benchmark must resolve.  So while a
#: run measures, a sibling process (:class:`SpeedMonitor`) times a short
#: fixed pure-Python loop every 20 ms, and each timed interval is scaled
#: to *reference seconds*: ``elapsed * CALIBRATION_REF_S / c``, where
#: ``c`` is the median loop time measured during the interval.  A
#: reference second is a second on a host where the loop takes 5 ms.
CALIBRATION_REF_S = 0.005
_CALIBRATION_ROUNDS = 3000
MONITOR_PERIOD_S = 0.02


def calibrate() -> float:
    """Wall time of one fixed loop of tuple keys, dict updates and sorts."""
    start = time.perf_counter()
    table: Dict[tuple, int] = {}
    acc = 0
    for i in range(_CALIBRATION_ROUNDS):
        key = (i & 63, i >> 6)
        acc = (acc + i * i) & 0xFFFF
        table[key] = table.get(key, 0) + acc
        items = [acc, i, key]
        items.sort(key=str)
    return time.perf_counter() - start


def monitor_main() -> None:
    """Body of the monitor process: sample until stdin closes, then print
    ``[[monotonic start, loop seconds], ...]`` as JSON."""
    done = threading.Event()

    def wait_for_eof() -> None:
        sys.stdin.read()
        done.set()

    threading.Thread(target=wait_for_eof, daemon=True).start()
    samples = []
    while not done.wait(MONITOR_PERIOD_S):
        samples.append((time.monotonic(), calibrate()))
    json.dump(samples, sys.stdout)


class SpeedMonitor:
    """Runs :func:`monitor_main` in a child process for a ``with`` block.

    After the block, :meth:`reference` converts a ``(start, end)``
    interval of ``time.monotonic()`` stamps into reference seconds.
    """

    def __enter__(self) -> "SpeedMonitor":
        self._proc = subprocess.Popen(
            [sys.executable, "-c",
             "import sys; sys.path.insert(0, sys.argv[1]); "
             "from perfbench.measure import monitor_main; monitor_main()",
             str(ROOT)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._times: List[float] = []
        self._loops: List[float] = []
        return self

    def __exit__(self, *exc) -> None:
        out, _ = self._proc.communicate(timeout=60)
        if self._proc.returncode != 0:
            raise RuntimeError(f"speed monitor exited with {self._proc.returncode}")
        for stamp, loop in json.loads(out):
            self._times.append(stamp)
            self._loops.append(loop)
        if not self._loops:
            raise RuntimeError("speed monitor took no samples")

    def reference(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self._times, start - MONITOR_PERIOD_S)
        hi = bisect.bisect_right(self._times, end)
        loops = self._loops[lo:hi]
        if not loops:  # shorter than one period: take the nearest sample
            nearest = min(max(lo, 0), len(self._loops) - 1)
            loops = [self._loops[nearest]]
        return (end - start) * CALIBRATION_REF_S / statistics.median(loops)


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: ``src`` first on the path."""
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def probe_setup(samples: int = SETUP_SAMPLES) -> List[tuple]:
    """Spawn fresh interpreters that import ``repro.api`` and build a
    ``Session``.

    Returns ``(start, ready, import_s)`` per sample: monotonic stamps of
    the spawn and of the child's ready line (convert with
    :func:`setup_seconds` once the speed monitor has stopped), and the child's
    own ``import repro.api`` wall time (``setup.import_s``).
    """
    out = []
    for _ in range(samples):
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-c", _SETUP_PROBE],
            stdout=subprocess.PIPE,
            env=child_env(),
            cwd=ROOT,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            ready = time.monotonic()
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        if code != 0 or not line.strip():
            raise RuntimeError(f"set-up probe exited with code {code}")
        out.append((start, ready, float(line)))
    return out


def setup_seconds(speed: SpeedMonitor, probes: List[tuple]) -> Dict[str, float]:
    """Medians of the probes: ``setup_s`` (reference seconds) and
    ``import_s`` (wall seconds)."""
    return {
        "setup_s": statistics.median(speed.reference(s, r) for s, r, _ in probes),
        "import_s": statistics.median(i for _, _, i in probes),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def summarize(samples: Sequence[float]) -> str:
    """Median plus the highest percentile with >= 10 samples beyond it."""
    values = sorted(samples)
    n = len(values)
    if not n:
        return "n=0"
    text = f"p50={statistics.median(values):.4f}"
    for pct in _PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= 10:
            rank = min(n - 1, int(round(pct / 100.0 * (n - 1))))
            text += f" p{pct:g}={values[rank]:.4f}"
            break
    return text + f" n={n}"


def load_pins() -> Dict[str, List[int]]:
    """Request key -> ``[rounds, forest_members, activations]``."""
    if not PINS_PATH.is_file():
        return {}
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def pin_of(report) -> List[int]:
    return [report.rounds, report.forest_members, report.activations]


@dataclass
class Outcome:
    """Operation accounting shared by every workload."""

    attempted: int = 0
    wrong: int = 0
    errors: Counter = field(default_factory=Counter)
    pinned: int = 0
    unpinned: int = 0
    mismatches: List[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.wrong + sum(self.errors.values())

    def error(self, kind: str) -> None:
        self.errors[kind] += 1

    def mismatch(self, message: str) -> None:
        self.wrong += 1
        if len(self.mismatches) < 5:
            self.mismatches.append(message)

    def check_pin(self, pins, key: str, got: List[int]) -> None:
        want = pins.get(key)
        if want is None:
            self.unpinned += 1
        elif want != got:
            self.mismatch(f"{key[:12]}: [rounds, members, activations] {got} != pin {want}")
        else:
            self.pinned += 1


def emit(outcome: Outcome, metrics: Dict[str, tuple], lines: List[str]) -> None:
    """Print the human-readable report, then the one-line JSON result."""
    for line in lines:
        print(line)
    print(
        f"operations: attempted={outcome.attempted} failed={outcome.failed} "
        f"wrong={outcome.wrong} pinned={outcome.pinned} unpinned={outcome.unpinned}"
    )
    if outcome.errors:
        print("failures by type: " + json.dumps(dict(sorted(outcome.errors.items()))))
    for message in outcome.mismatches:
        print(f"MISMATCH {message}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": outcome.wrong == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )


def environment() -> Dict[str, object]:
    """Interpreter, library versions and CPU count of this run."""
    info: Dict[str, object] = {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
    }
    for name in ("numpy", "scipy"):
        try:
            info[name] = __import__(name).__version__
        except ImportError:
            info[name] = None
    return info


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def median_or_zero(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0
