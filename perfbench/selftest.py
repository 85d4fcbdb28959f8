"""Self-checks of the benchmark (not part of the repository's test suite).

Run from the repository root::

    python3 -m pytest -q perfbench/selftest.py

* one seed always yields the same request list, in any interpreter;
* the default and held-out seeds' leading requests are pinned, and
  re-running some of them reproduces the pins;
* traced and untraced runs give identical rounds and forests, and the
  tracer restores every patched callable.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.inprocess import drive  # noqa: E402
from perfbench.measure import Outcome, child_env, load_pins  # noqa: E402
from perfbench.tracer import TARGETS, LayerTracer, _resolve  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    DEFAULT_SEED,
    HELD_OUT_SEED,
    WORKLOADS,
    requests_for,
)

_KEYS_SNIPPET = (
    "import sys; sys.path[:0] = ['src', '.']; "
    "from perfbench.workloads import requests_for; "
    "print(','.join(r.key() for r in requests_for(sys.argv[1], int(sys.argv[2]))))"
)


def _keys(name: str, seed: int):
    return [r.key() for r in requests_for(name, seed)]


def test_seed_determines_requests():
    for name in WORKLOADS:
        assert _keys(name, DEFAULT_SEED) == _keys(name, DEFAULT_SEED)
        assert _keys(name, DEFAULT_SEED) != _keys(name, HELD_OUT_SEED)


def test_requests_independent_of_hash_seed():
    for name in ("cold-small", "service-mixed"):
        outputs = set()
        for hash_seed in ("0", "12345"):
            env = child_env()
            env["PYTHONHASHSEED"] = hash_seed
            out = subprocess.run(
                [sys.executable, "-c", _KEYS_SNIPPET, name, str(DEFAULT_SEED)],
                cwd=ROOT, env=env, capture_output=True, text=True, check=True,
                timeout=120,
            ).stdout.strip()
            outputs.add(out)
        assert outputs == {",".join(_keys(name, DEFAULT_SEED))}


def test_default_and_held_out_seeds_are_pinned():
    pins = load_pins()
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        for name, workload in WORKLOADS.items():
            leading = requests_for(name, seed)[: workload.pinned]
            missing = [r.key() for r in leading if r.key() not in pins]
            assert not missing, f"{name} seed {seed}: {len(missing)} unpinned"


def test_rerun_matches_pins():
    pins = load_pins()
    requests = requests_for("cold-small", DEFAULT_SEED)[:4]
    requests += requests_for("churn-repair", DEFAULT_SEED)[:1]
    outcome = Outcome()
    drive(requests, outcome, pins)
    assert outcome.failed == 0, (outcome.errors, outcome.mismatches)
    assert outcome.pinned == len(requests)


def test_traced_and_untraced_runs_agree():
    requests = requests_for("cold-small", HELD_OUT_SEED)[:4]
    requests += requests_for("churn-repair", HELD_OUT_SEED)[:1]
    outcome = Outcome()
    plain = drive(requests, outcome, {})
    originals = [_resolve(target)[2] for _, target, _ in TARGETS]
    with LayerTracer() as tracer:
        traced = drive(requests, outcome, {}, tracer)
    assert [_resolve(target)[2] for _, target, _ in TARGETS] == originals
    assert outcome.failed == 0, (outcome.errors, outcome.mismatches)
    assert [(r.pin, r.digest) for r in plain] == [(r.pin, r.digest) for r in traced]
    assert tracer.coverage() >= 0.9
    assert tracer.layer_calls("sim.wire") > 0
