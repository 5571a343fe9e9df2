#!/usr/bin/env python3
"""Accuracy gate: runs each perfbench workload once and compares its Table I /
Fig. 8 numbers with the pinned values below.

    python3 bench/check_accuracy.py

Each workload runs `perfbench/run.py --workload W --seconds 1 --trace 0`. The
gate fails unless the run reports `correct`, `rooms_placed` matches exactly,
and every other accuracy metric is no worse than its pinned value by more
than RELATIVE_BOUND (the accuracy bound BENCHMARK.json declares). The
numbers are exact for a dataset seed, so any drift is a real change in the
reconstruction.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RELATIVE_BOUND = 0.01

# metric -> True when higher is better.
HIGHER_IS_BETTER = {
    "hallway_f1": True,
    "room_area_err": False,
    "room_aspect_err": False,
    "room_location_err_m": False,
}

PINNED = {
    "backlog_lab2": {"hallway_f1": 0.89980, "room_area_err": 0.04073,
                     "room_aspect_err": 0.03880, "room_location_err_m": 1.50314,
                     "rooms_placed": 10},
    "refresh_gym": {"hallway_f1": 0.82818, "room_area_err": 0.04009,
                    "room_aspect_err": 0.08141, "room_location_err_m": 1.97582,
                    "rooms_placed": 3},
    "restart_lab1": {"hallway_f1": 0.90141, "room_area_err": 0.02909,
                     "room_aspect_err": 0.04744, "room_location_err_m": 0.94132,
                     "rooms_placed": 12},
}


def failures(workload, result):
    """Every way one workload's result misses its pins, as readable lines."""
    if not result["correct"]:
        return [f"{workload}: run is not correct"]
    metrics = result["metrics"]
    pins = PINNED[workload]
    out = []
    placed = metrics["rooms_placed"]["value"]
    if placed != pins["rooms_placed"]:
        out.append(f"{workload}: rooms_placed {placed:g} != {pins['rooms_placed']}")
    for name, higher in HIGHER_IS_BETTER.items():
        value = metrics[name]["value"]
        pin = pins[name]
        limit = pin * (1 - RELATIVE_BOUND) if higher else pin * (1 + RELATIVE_BOUND)
        if (value < limit) if higher else (value > limit):
            out.append(f"{workload}: {name} {value:.5f} is worse than pinned "
                       f"{pin:.5f} beyond {RELATIVE_BOUND:.0%}")
    return out


def main():
    failed = []
    for workload in PINNED:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
             workload, "--seconds", "1", "--trace", "0"],
            stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            failed.append(f"{workload}: perfbench exited with {proc.returncode}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        problems = failures(workload, result)
        values = " ".join(f"{k}={result['metrics'][k]['value']:.5f}"
                          for k in PINNED[workload])
        print(f"{workload}: {'FAIL' if problems else 'ok'} {values}")
        failed += problems
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
