"""Record round pins: ``python3 perfbench/run.py --workload W --seed N --pin``.

Runs the leading requests of a seed's stream (``Workload.pinned`` of
them; for ``service-mixed`` the distinct requests among its leading
operations), oracle-checks every forest, and merges
``key -> [rounds, forest_members, activations]`` into ``pins.json``.
Pins are taken once, from the code the benchmark was defined on; a later
change that moves a round total is caught as a mismatch.
"""

from __future__ import annotations

import json

from perfbench.inprocess import WARMUP, drive
from perfbench.measure import PINS_PATH, Outcome, load_pins
from perfbench.workloads import requests_for
from repro.api import Session


def record_pins(workload, seed: int) -> int:
    requests = requests_for(workload.name, seed)[: workload.pinned]
    requests = list(dict.fromkeys(requests))
    for request in WARMUP:
        Session().run(request)
    outcome = Outcome()
    records = drive(requests, outcome, {})
    if outcome.failed:
        print(f"not pinning: {outcome.failed} failed, {dict(outcome.errors)} "
              f"{outcome.mismatches}")
        return 1
    pins = load_pins()
    added = 0
    for record in records:
        key = record.request.key()
        if pins.get(key, record.pin) != record.pin:
            print(f"pin changed for {key[:12]}: {pins[key]} -> {record.pin}")
            return 1
        added += key not in pins
        pins[key] = record.pin
    PINS_PATH.write_text(
        json.dumps(pins, sort_keys=True, separators=(",", ":")).replace("],", "],\n")
        + "\n",
        encoding="utf-8",
    )
    print(f"{workload.name} seed {seed}: {len(records)} requests, {added} new pins")
    return 0
