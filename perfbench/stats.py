"""Arithmetic behind the benchmark's metrics: percentiles with the
sample-support rule, span self time, and trace coverage.

Kept free of I/O so perfbench/test_stats.py can check it directly.
"""

import math
import statistics

# A tail percentile is reported only when at least this many samples lie
# beyond it; with fewer, one outlier decides the value.
MIN_SAMPLES_BEYOND = 10


def percentile(samples, q):
    """q-quantile (0 <= q <= 1) by linear interpolation between order
    statistics (the 'inclusive' method)."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    ordered = sorted(samples)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_beyond(n, q):
    """How many of n samples lie strictly above the q-quantile position."""
    return n - 1 - math.floor(q * (n - 1)) if n > 0 else 0


def supports(n, q, min_beyond=MIN_SAMPLES_BEYOND):
    """Whether n samples support reporting the q-quantile."""
    return samples_beyond(n, q) >= min_beyond


def highest_supported(n, candidates=(0.5, 0.75, 0.9, 0.95, 0.99),
                      min_beyond=MIN_SAMPLES_BEYOND):
    """Highest candidate quantile that n samples support, or None."""
    best = None
    for q in sorted(candidates):
        if supports(n, q, min_beyond):
            best = q
    return best


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    """num / den, 0 when there is nothing to divide by."""
    return num / den if den else 0.0


def self_times(spans):
    """Self time of each span: its duration minus the part of it that its
    children cover. Children of one span may overlap; their union counts
    once. `spans` is a list of dicts with start, end and parent (an index
    into the list, or -1)."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        parent = int(span["parent"])
        if parent >= 0:
            children[parent].append(i)
    result = []
    for i, span in enumerate(spans):
        start, end = span["start"], span["end"]
        intervals = sorted(
            (max(spans[c]["start"], start), min(spans[c]["end"], end))
            for c in children[i])
        covered, cursor = 0.0, start
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(max(end - start - covered, 0.0))
    return result


def layer_self_times(spans, passes, root="pass"):
    """Per timed pass, the self time of each layer: {pass: {name: s}}.
    Spans named `root` delimit the passes and are not a layer."""
    selfs = self_times(spans)
    per_pass = {p: {} for p in passes}
    for span, own in zip(spans, selfs):
        p = int(span["pass"])
        if p not in per_pass or span["name"] == root:
            continue
        per_pass[p][span["name"]] = per_pass[p].get(span["name"], 0.0) + own
    return per_pass


def coverage(spans, passes, root="pass"):
    """Share of the timed wall (the root spans of the given passes) that
    layer self time accounts for."""
    wall = sum(s["end"] - s["start"] for s in spans
               if s["name"] == root and int(s["pass"]) in passes)
    layers = layer_self_times(spans, passes, root)
    accounted = sum(sum(by_name.values()) for by_name in layers.values())
    return ratio(accounted, wall)


def overhead_ratio(passes):
    """Median, over upload permutations replayed both ways, of the traced
    pass wall time over the untraced one."""
    traced = {p["order"]: p["wall_s"] for p in passes if p["traced"]}
    ratios = [traced[p["order"]] / p["wall_s"] for p in passes
              if not p["traced"] and p["order"] in traced and p["wall_s"] > 0]
    return median(ratios)
