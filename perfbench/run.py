#!/usr/bin/env python3
"""libra-sim benchmark: build the driver, run one workload, check, summarise.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mem-frame --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --compare OLD.json NEW.json

A run builds perfbench/libra_bench (CMake, into $CARGO_TARGET_DIR or
.bench_build), runs it for --seconds of timed closed-loop work, checks the
simulator's outputs, prints every metric with its unit and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics; --trace 1 reports the per-layer metrics from a separate
traced run. Each run also writes its summary, host shape included, to
<build dir>/results/, and --compare refuses to compare results whose host
shapes differ. It exits 1 when any check fails. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# Not used while the benchmark was written; reserve it for confirming a claim.
HELD_OUT_SEED = 104729

WORKLOADS = {
    "mem-frame": "CCS (memory-intensive), GpuConfig::libra(2,4), 960x544; "
                 "closed loop of 4-frame blocks from frame 0, each on a "
                 "fresh Gpu",
    "compute-frame": "GDL (compute-intensive), GpuConfig::libra(2,4), "
                     "960x544; closed loop of 4-frame blocks from frame 0, "
                     "each on a fresh Gpu",
    "figure-sweep": "10 jobs at 960x544, 4 frames each: {CCS,GDL} x "
                    "{baseline(8),ptr(2,4),libra(2,4),re-libra} plus 2 CCS "
                    "LIBRA resize-threshold variants, forking a 2-frame "
                    "warm prefix with CCS libra(2,4); closed loop of "
                    "SweepRunner::runWithPolicy sweeps on min(4,nproc) "
                    "workers",
}

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
END_TO_END = [
    ("frames_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.15),
]

# End-to-end metrics reported as the fastest of a run rather than the
# median. Host speed on a shared machine swings by up to 40% for seconds
# at a time, with other load on the shared caches, and a run's median
# moves with it. The fastest time is the estimate that other load
# disturbs least. For frames_per_s on the frame workloads it is a block
# built from each frame's fastest time across the run's blocks (a frame
# is a shorter window than a block, so more of them fall in quiet
# spells), and on the sweep the fastest sweep. For setup_s it is the
# fastest set-up: the sweep's set-up time is bimodal from one sweep to
# the next (about 0.9 or 1.5 ms with the same page-fault count), so a
# median of a few sweeps flips between the modes. The median sample is
# printed beside each.
BEST_OF = {"frames_per_s", "setup_s"}

# (name, unit, better, source): "span:<name>" is the median duration of that
# span, "count" comes from the driver's deterministic counts, "derived" is
# computed below from both. Simulated counts must not change under a
# simulator-only change; "better" for them says which way means less
# simulated work or a better verdict.
PER_LAYER = [
    ("workload.scene_build_s", "s", "lower", "span:workload.scene_build"),
    ("workload.frame_gen_s", "s", "lower", "span:workload.frame_gen"),
    ("workload.triangles", "1/frame", "lower", "count"),
    ("gpu.construct_s", "s", "lower", "span:gpu.construct"),
    ("gpu.render_s", "s", "lower", "span:gpu.render"),
    ("gpu.events", "1/frame", "lower", "count"),
    ("gpu.host_ns_per_event", "ns", "lower", "derived"),
    ("gpu.sim_cycles", "cycles/frame", "lower", "count"),
    ("tiling.bin_s", "s", "lower", "span:tiling.bin"),
    ("tiling.bin_entries", "1/frame", "lower", "count"),
    ("raster.quads", "1/frame", "lower", "count"),
    ("shader.instructions", "1/frame", "lower", "count"),
    ("shader.warps", "1/frame", "lower", "count"),
    ("ru.rasterize_cycles", "cycles/frame", "lower", "count"),
    ("ru.shade_cycles", "cycles/frame", "lower", "count"),
    ("ru.texture_wait_cycles", "cycles/frame", "lower", "count"),
    ("ru.dram_wait_cycles", "cycles/frame", "lower", "count"),
    ("ru.blend_cycles", "cycles/frame", "lower", "count"),
    ("ru.idle_cycles", "cycles/frame", "lower", "count"),
    ("cache.tex_l1_accesses", "1/frame", "lower", "count"),
    ("cache.tex_l1_hit_ratio", "ratio", "higher", "count"),
    ("cache.l2_accesses", "1/frame", "lower", "count"),
    ("cache.l2_hit_ratio", "ratio", "higher", "count"),
    ("cache.l2_mshr_coalesced", "1/frame", "lower", "count"),
    ("cache.l2_mshr_stalls", "1/frame", "lower", "count"),
    ("cache.avg_texture_latency_cycles", "cycles", "lower", "count"),
    ("dram.reads", "1/frame", "lower", "count"),
    ("dram.writes", "1/frame", "lower", "count"),
    ("dram.activates", "1/frame", "lower", "count"),
    ("dram.row_hit_ratio", "ratio", "higher", "count"),
    ("dram.avg_read_latency_cycles", "cycles", "lower", "count"),
    ("sched.begin_frame_s", "s", "lower", "span:sched.begin_frame"),
    ("sched.temperature_frames", "count", "lower", "count"),
    ("sched.ranking_cycles", "cycles/frame", "lower", "count"),
    ("sched.final_supertile_size", "tiles", "lower", "count"),
    ("re.tiles_skipped", "1/frame", "lower", "count"),
    ("sweep.wall_s", "s", "lower", "span:sweep.wall"),
    ("sweep.workers_effective", "count", "higher", "count"),
    ("sweep.serial_s", "s", "lower", "span:sweep.serial"),
    ("sweep.parallel_efficiency", "ratio", "higher", "derived"),
    ("sweep.jobs_failed", "count", "lower", "count"),
    ("sweep.warm_prefix_forks", "count", "higher", "count"),
    ("snapshot.save_s", "s", "lower", "span:snapshot.save"),
    ("snapshot.load_s", "s", "lower", "span:snapshot.load"),
    ("snapshot.bytes", "bytes", "lower", "count"),
    ("report.json_s", "s", "lower", "span:report.json"),
    ("report.bytes", "bytes", "lower", "count"),
    ("energy.total_mj", "mJ/frame", "lower", "count"),
    ("verdict.ptr_speedup", "x", "higher", "count"),
    ("verdict.libra_speedup", "x", "higher", "count"),
    ("verdict.scheduler_extra_pp", "pp", "higher", "count"),
    ("counters_digest", "hash", "lower", "count"),
    ("trace_overhead_pct", "%", "lower", "derived"),
]

# Fig. 11 averages of the paper, printed beside the simulated verdicts for
# reference only: the model is not validated against hardware.
PAPER_VERDICTS = {"ptr": 13.2, "libra": 20.9, "extra_pp": 7.7}

TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)


def percentile(sorted_xs, p):
    """Linear-interpolated p-th percentile of an ascending list."""
    if len(sorted_xs) == 1:
        return sorted_xs[0]
    pos = (len(sorted_xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (pos - lo)


def summarize(values, better="lower"):
    """Median, quartiles, sample count and the highest tail percentile
    that has at least ten samples beyond it, on the worse side (high
    for lower-is-better values, low for higher-is-better ones)."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    med = statistics.median(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4) if n >= 2 else (med, med, med)
    tail_pct = None
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10 - 1e-9:  # 99.9 is inexact in binary
            tail_pct = p
    tail = None
    if tail_pct is not None:
        tail = percentile(xs, tail_pct if better == "lower"
                          else 100 - tail_pct)
    return {"median": med, "q1": q1, "q3": q3, "n": n,
            "tail_pct": tail_pct, "tail": tail,
            "best": xs[-1] if better == "higher" else xs[0]}


def check_raw(raw):
    """Every correctness check of one driver report, as (name, ok, detail):
    the driver's own checks, then one per digest list, whose entries must
    all be equal (repeated runs, direct runs, forks, snapshot restores)."""
    checks = [(c["name"], c["ok"], c["detail"]) for c in raw["checks"]]
    for name, digests in sorted(raw["digests"].items()):
        ok = len(digests) >= 2 and len(set(digests)) == 1
        checks.append(("digest:" + name, ok,
                       "%d identical" % len(digests) if ok
                       else "digests differ or too few: %s" % digests))
    return checks


def inject_digest_mismatch(raw):
    """Corrupt one digest, as a wrong counter dump would (self-test)."""
    name = sorted(raw["digests"])[0]
    last = raw["digests"][name][-1]
    flipped = "0" if last[-1] != "0" else "1"
    raw["digests"][name][-1] = last[:-1] + flipped


def span_durations(spans):
    """Seconds per span, grouped by span name."""
    out = {}
    for s in spans:
        out.setdefault(s["name"], []).append(
            (s["end_ns"] - s["start_ns"]) / 1e9)
    return out


def per_layer_metrics(raw, spans):
    """Value of every PER_LAYER metric. A span the workload never opens
    reads 0: that layer is not called on this workload."""
    durations = span_durations(spans)
    counts = raw["counts"]
    values = {}
    for name, _, _, source in PER_LAYER:
        if source.startswith("span:"):
            d = durations.get(source[len("span:"):])
            values[name] = statistics.median(d) if d else 0.0
        elif source == "count":
            if name not in counts:
                raise KeyError("driver report lacks count " + name)
            values[name] = counts[name]
    events = counts["gpu.events"]
    values["gpu.host_ns_per_event"] = (
        values["gpu.render_s"] / events * 1e9 if events else 0.0)
    on, off = raw["samples"]["spans_on_s"], raw["samples"]["spans_off_s"]
    values["trace_overhead_pct"] = (
        100 * (statistics.median(on) / statistics.median(off) - 1)
        if on and off else 0.0)
    workers = counts["sweep.workers_effective"]
    wall = values["sweep.wall_s"]
    values["sweep.parallel_efficiency"] = (
        values["sweep.serial_s"] / (wall * workers) if wall and workers
        else 0.0)
    return values


def fastest_frames_rate(blocks):
    """Frames per second of one block made of each frame's fastest host
    time across @p blocks (lists of per-frame seconds, one per block)."""
    return len(blocks[0]) / sum(min(times) for times in zip(*blocks))


def end_to_end_metrics(raw):
    """Value and summary of every END_TO_END metric."""
    samples = raw["samples"]
    out = {}
    for name, _, better, _ in END_TO_END:
        if name == "peak_rss_mb":
            out[name] = (raw["peak_rss_mb"], None)
            continue
        s = summarize(samples[name], better)
        value = s["best"] if name in BEST_OF else s["median"]
        if name == "frames_per_s" and samples["block_frame_s"]:
            value = fastest_frames_rate(samples["block_frame_s"])
        out[name] = (value, s)
    return out


def evaluate(raw, spans, trace):
    """The result line of one run and its printable report lines."""
    checks = check_raw(raw)
    ops = raw["operations"]
    attempted = ops["attempted"] + len(checks)
    failed = ops["failed"] + sum(1 for _, ok, _ in checks if not ok)
    lines = []
    metrics = {}
    if trace:
        values = per_layer_metrics(raw, spans)
        for name, unit, _, _ in PER_LAYER:
            metrics[name] = {"value": values[name], "unit": unit}
            lines.append("  %-34s %-14.6g %s" % (name, values[name], unit))
    else:
        e2e = end_to_end_metrics(raw)
        for name, unit, _, _ in END_TO_END:
            value, s = e2e[name]
            metrics[name] = {"value": value, "unit": unit}
            detail = ""
            if s is not None:
                tail = ("p%g %.6g" % (s["tail_pct"], s["tail"])
                        if s["tail_pct"] is not None
                        else "no percentile has 10 samples beyond it")
                best = ("fastest of %d; median %.6g" % (s["n"], s["median"])
                        if name in BEST_OF else "median of %d" % s["n"])
                detail = "(%s; q1 %.6g, q3 %.6g, %s)" % (
                    best, s["q1"], s["q3"], tail)
            lines.append("  %-14s %-12.6g %-4s %s" % (name, value, unit,
                                                      detail))
    lines.append("  %-14s %-12.6g %-4s (%d failed / %d attempted)" % (
        "error_rate", failed / attempted, "", failed, attempted))
    for name, ok, detail in checks:
        lines.append("  check %-44s %s  %s" % (
            name, "ok" if ok else "FAILED", detail))
    for err in ops["errors"]:
        lines.append("  error %s" % err)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, lines


def verdict_lines(metrics):
    ptr = metrics["verdict.ptr_speedup"]["value"]
    lib = metrics["verdict.libra_speedup"]["value"]
    if not ptr or not lib:
        return []
    return [
        "verdicts (simulated cycles at 960x544, Fig. 11-style speedup "
        "over baseline(8) on the sweep's memory-intensive title, CCS):",
        "  PTR %+.1f%%, LIBRA %+.1f%%, scheduler extra %+.1f pp" % (
            100 * (ptr - 1), 100 * (lib - 1),
            metrics["verdict.scheduler_extra_pp"]["value"]),
        "  paper (average over its memory-intensive titles): PTR +%.1f%%, "
        "LIBRA +%.1f%%, scheduler extra +%.1f pp (reference only: the "
        "model is unvalidated against hardware, so no error figure is "
        "given)" % (
            PAPER_VERDICTS["ptr"], PAPER_VERDICTS["libra"],
            PAPER_VERDICTS["extra_pp"]),
    ]


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(out_dir):
    """Configure (once) and build the driver; its path, or exit 1."""
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        sys.exit("run.py: libra-sim sources (src/) not found next to "
                 "perfbench/; run from a full checkout")
    cmake_dir = out_dir / "perfbench"
    cmake_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", str(cmake_dir), "-j", jobs]]
    if not (cmake_dir / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", str(BENCH_DIR), "-B",
                         str(cmake_dir)])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                sys.exit("run.py: build failed, see %s" % log_path)
    return cmake_dir / "libra_bench"


def compare(old_path, new_path):
    """Print each metric's change between two saved results; refuse
    (exit 2) when workload, trace mode or host shape differ."""
    old = json.loads(Path(old_path).read_text())
    new = json.loads(Path(new_path).read_text())
    for key in ("workload", "trace", "shape"):
        if old[key] != new[key]:
            print("refusing to compare: %s differs:\n  %s\n  %s" % (
                key, old[key], new[key]))
            return 2
    bounds = {name: (better, bound) for name, _, better, bound in END_TO_END}
    simulated = {name for name, _, _, source in PER_LAYER
                 if source == "count"}
    for name, m in new["metrics"].items():
        a, b = old["metrics"][name]["value"], m["value"]
        line = "  %-34s %-14.6g -> %-14.6g %s" % (name, a, b, m["unit"])
        if name in bounds and a:
            better, bound = bounds[name]
            worse = (a - b) / a if better == "higher" else (b - a) / a
            line += "  %+.1f%% %s" % (
                100 * (b - a) / a,
                "REGRESSION" if worse > bound else "within bound")
        elif name in simulated:
            line += "  identical" if a == b else "  CHANGED"
        print(line)
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-digest-mismatch", action="store_true",
                    help="self-test: corrupt one digest; the run must fail")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        ap.error("--workload is required")

    out_dir = build_dir()
    binary = build(out_dir)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    spans_path = out_dir / "spans" / (tag + ".json")
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--traced",
           str(args.trace), "--spans-out", str(spans_path)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=args.seconds + 120)
    if proc.returncode != 0:
        sys.exit("run.py: libra_bench exited with %d" % proc.returncode)
    raw = json.loads(proc.stdout)
    if args.inject_digest_mismatch:
        inject_digest_mismatch(raw)
    spans = (json.loads(spans_path.read_text())["spans"] if args.trace
             else [])

    result, lines = evaluate(raw, spans, args.trace)
    shape = raw["shape"]
    print("libra-sim benchmark: %s (%s)" % (args.workload,
                                            WORKLOADS[args.workload]))
    print("seed %d (held-out seed for claims: %d), trace %d, %g s timed, "
          "resolution %s, one %s per sample" % (
              args.seed, HELD_OUT_SEED, args.trace, args.seconds,
              raw["resolution"], raw["timed_unit"]))
    print("host shape: " + ", ".join("%s=%s" % kv for kv in shape.items()))
    print("\n".join(lines))
    if args.trace:
        print("\n".join(verdict_lines(result["metrics"])))
        print("spans: %s" % spans_path)

    results_dir = out_dir / "results"
    results_dir.mkdir(exist_ok=True)
    saved = dict(result, workload=args.workload, seed=args.seed,
                 trace=args.trace, shape=shape)
    (results_dir / (tag + ".json")).write_text(json.dumps(saved, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
