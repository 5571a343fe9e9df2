#!/usr/bin/env python3
"""End-to-end benchmark of the CrowdMap backend (see perfbench/README.md).

    python3 perfbench/run.py --workload backlog_lab2 --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles ../src) into .bench_build/, runs one
workload in a fresh process, checks its outputs and prints one JSON line
last: {"correct", "attempted", "failed", "metrics"}. --trace 0 gives the
end-to-end metrics, --trace 1 the per-layer ones.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ("backlog_lab2", "refresh_gym", "restart_lab1")
# refresh_gym pools at least this many refreshes, enough for its p75.
MIN_REFRESH_SAMPLES = 40
BINARY_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_root):
    """Configures once, then (re)builds; returns the harness binary."""
    build_dir = build_root / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    build_log = build_dir / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    with open(build_log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode:
                with open(build_log) as failed:
                    sys.stderr.write("".join(failed.readlines()[-20:]))
                # A failed configure must not leave a cache that skips it.
                (build_dir / "CMakeCache.txt").unlink(missing_ok=True)
                raise RuntimeError(f"build step failed: {' '.join(step)}")
    return build_dir / "crowdmap_perfbench"


def end_to_end(record):
    passes = record["passes"]
    plan_ms = [ms for p in passes for ms in p["plan_ms"]]
    acc = record["accuracy"]
    attempted = record["attempted"]
    return {
        "setup_s": (record["setup_s"], "s"),
        "plan_p50_ms": (stats.median(plan_ms), "ms"),
        "cpu_s": (stats.median([p["cpu_s"] for p in passes]), "s"),
        "peak_rss_mb": (record["peak_rss_mb"], "MiB"),
        "op_ok_ratio": (stats.ratio(attempted - record["failed"], attempted), "ratio"),
        "hallway_f1": (acc["hallway_f1"], "ratio"),
        "room_area_err": (acc["room_area_err"], "ratio"),
        "room_aspect_err": (acc["room_aspect_err"], "ratio"),
        "room_location_err_m": (acc["room_location_err_m"], "m"),
        "rooms_placed": (acc["rooms_placed"], "count"),
    }


def per_layer(record):
    """Per-layer metrics of a traced run: per-pass values are medians over
    the traced passes; sim.* is the set-up render, trajectory.extract_* and
    vision.* the serial re-run of extraction."""
    passes = [p for p in record["passes"] if p["traced"]]
    ids = {p["pass"] for p in passes}
    spans = record["spans"]
    layer_s = stats.layer_self_times(spans, ids)

    def per_pass(fn):
        return stats.median([fn(p) for p in passes])

    def self_s(name):
        return stats.median([layer_s[p].get(name, 0.0) for p in ids])

    def wall_s(name):
        return stats.median([sum(s["end"] - s["start"] for s in spans
                                 if s["name"] == name and s["pass"] == p)
                             for p in ids])

    ext = record["extraction"]
    store = record["storage"]
    frames = record["frames"]
    keyframes = ext["keyframes"]
    return {
        "sim.render_s": (record["render_s"], "s"),
        "sim.frames": (frames, "count"),
        "sim.render_ms_per_frame": (stats.ratio(record["render_s"] * 1e3, frames), "ms"),
        "api.client_s": (self_s("api.client"), "s"),
        "api.submit_s": (self_s("api.submit"), "s"),
        "api.submit_ms_p50": (stats.median([ms for p in passes for ms in p["submit_ms"]]), "ms"),
        "api.chunks_sent": (per_pass(lambda p: p["chunks_sent"]), "count"),
        "api.chunks_rejected": (per_pass(lambda p: p["chunks_rejected"]), "count"),
        "cloud.drain_s": (self_s("cloud.drain"), "s"),
        "trajectory.extract_ms_p50": (stats.median(ext["extract_ms"]), "ms"),
        "trajectory.extract_s": (sum(ext["extract_ms"]) / 1e3, "s"),
        "trajectory.keyframes": (keyframes, "count"),
        "trajectory.keyframe_ratio": (stats.ratio(keyframes, frames), "ratio"),
        "vision.surf_ms_per_keyframe": (stats.ratio(ext["surf_s"] * 1e3, keyframes), "ms"),
        "vision.surf_features_per_keyframe": (stats.ratio(ext["surf_features"], keyframes), "count"),
        "trajectory.aggregate_s": (per_pass(lambda p: p["aggregate_s"]), "s"),
        "trajectory.match_edges": (per_pass(lambda p: p["match_edges"]), "count"),
        "trajectory.placed_ratio": (per_pass(lambda p: stats.ratio(
            p["trajectories_placed"], p["trajectories_kept"])), "ratio"),
        "trajectory.s2_hit_ratio": (per_pass(lambda p: stats.ratio(
            p["s2_hits"], p["s2_hits"] + p["s2_misses"])), "ratio"),
        "mapping.skeleton_s": (per_pass(lambda p: p["skeleton_s"]), "s"),
        "room.rooms_s": (per_pass(lambda p: p["rooms_s"]), "s"),
        "room.panorama_ratio": (per_pass(lambda p: stats.ratio(
            p["panoramas_stitched"], p["panoramas_attempted"])), "ratio"),
        "room.rooms_reconstructed": (per_pass(lambda p: p["rooms_reconstructed"]), "count"),
        "floorplan.arrange_s": (per_pass(lambda p: p["arrange_s"]), "s"),
        "core.build_s": (wall_s("core.build"), "s"),
        "core.build_unaccounted_s": (self_s("core.build"), "s"),
        "cache.hit_ratio": (per_pass(lambda p: stats.ratio(
            p["artifact_hits"], p["artifact_hits"] + p["artifact_misses"])), "ratio"),
        "cache.pairs_reused_ratio": (per_pass(lambda p: stats.ratio(
            p["pairs_reused"], p["pairs_total"])), "ratio"),
        "cache.rooms_reused_ratio": (per_pass(lambda p: stats.ratio(
            p["rooms_reused"], p["rooms_total"])), "ratio"),
        "cache.bytes": (per_pass(lambda p: p["cache_bytes"]), "bytes"),
        "storage.checkpoint_s": (store.get("checkpoint_s", 0.0), "s"),
        "storage.recover_s": (self_s("storage.recover"), "s"),
        "storage.wal_appends": (store.get("wal_appends", 0.0), "count"),
        "storage.wal_bytes": (store.get("wal_bytes", 0.0), "bytes"),
        "storage.records_replayed": (per_pass(lambda p: p["records_replayed"]), "count"),
        "obs.trace_coverage": (stats.coverage(spans, ids), "ratio"),
        "obs.trace_overhead_ratio": (stats.overhead_ratio(record["passes"]), "ratio"),
    }


def describe(record):
    """Human lines: host shape, sample counts and the workload's own names
    for its headline numbers."""
    passes = record["passes"]
    plan_ms = [ms for p in passes for ms in p["plan_ms"]]
    n = len(plan_ms)
    lines = [f"host {json.dumps(record['host'], sort_keys=True)}",
             f"workload {record['workload']} dataset {record['dataset']} "
             f"dataset_seed {record['dataset_seed']:#x} seed {record['seed']:.0f} "
             f"videos {record['videos']:.0f} frames {record['frames']:.0f}",
             f"samples passes={len(passes)} plan={n} measured_s={record['measured_s']:.3f}"]
    name = {"backlog_lab2": "campaign", "refresh_gym": "refresh",
            "restart_lab1": "restart"}[record["workload"]]
    line = f"{name}_p50_ms={stats.median(plan_ms):.3f} (n={n})"
    q = stats.highest_supported(n)
    if q is not None and q > 0.5:
        line += f" {name}_p{round(q * 100)}_ms={stats.percentile(plan_ms, q):.3f}"
    lines.append(line)
    for check in record["checks"]:
        if not check["ok"]:
            lines.append(f"FAILED check {check['name']}")
    return lines


def is_correct(record):
    if any(not c["ok"] for c in record["checks"]) or record["failed"]:
        return False
    if record["workload"] == "refresh_gym":
        return sum(len(p["plan_ms"]) for p in record["passes"]) >= MIN_REFRESH_SAMPLES
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1,
                        help="orders the uploads of every pass")
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dataset-seed", type=lambda s: int(s, 0), default=None,
                        help="campaign seed (default: the dataset's own)")
    args = parser.parse_args()

    build_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(build_root)
    except (OSError, RuntimeError) as err:
        log(str(err))
        return 1

    work_dir = build_root / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir)]
    if args.dataset_seed is not None:
        cmd += ["--dataset-seed", str(args.dataset_seed)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"harness exceeded {BINARY_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        log(f"harness exited with {proc.returncode}")
        return 1
    record = json.loads(proc.stdout.strip().splitlines()[-1])

    if args.trace:
        trace_dir = build_root / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        (trace_dir / f"{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(record))
    metrics = per_layer(record) if args.trace else end_to_end(record)
    for line in describe(record):
        print(line)
    print(json.dumps({
        "correct": is_correct(record),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
