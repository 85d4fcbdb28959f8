"""Start-up guard: importing and observing repro loads neither numpy nor scipy.

numpy loads on the first numpy kernel, never at import, and nothing in
repro imports scipy: a one-shot CLI solve, a fresh ``Session`` and a
daemon's ``/stats`` and ``/metrics`` pay for neither library.  Each case
runs in a fresh interpreter, because this test process has long since
imported numpy.  Without numpy installed the guard holds trivially; the
CI ``numpy-backend`` job is where it bites.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_SRC = str(Path(repro.__file__).resolve().parent.parent)

_REPORT = (
    "import json, sys; "
    "print(json.dumps({m: m in sys.modules for m in ('numpy', 'scipy')}))"
)


def _loaded_after(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; which heavy modules loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{_REPORT}"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "code",
    [
        "import repro",
        "import repro.api\nrepro.api.Session()",
        "import repro.cli",
        "from repro.service import SolverService\n"
        "service = SolverService(workers=1)\n"
        "service.stats()\n"
        "service.metrics.render_prometheus()\n"
        "service.shutdown()",
    ],
    ids=["import-repro", "session", "cli", "daemon-observability"],
)
def test_start_up_loads_neither_numpy_nor_scipy(code):
    assert _loaded_after(code) == {"numpy": False, "scipy": False}


@pytest.mark.skipif(
    importlib.util.find_spec("numpy") is None, reason="numpy not installed"
)
def test_numpy_solve_loads_numpy_but_not_scipy():
    loaded = _loaded_after(
        "from repro.api import Session, SolveRequest\n"
        "Session().run(SolveRequest(shape='random:200:7', k=2, backend='numpy'))"
    )
    assert loaded == {"numpy": True, "scipy": False}
