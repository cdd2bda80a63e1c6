#!/usr/bin/env python3
"""Host-time benchmark of the lapsim simulator.

Builds perfbench/ (which compiles ../src) into the build directory,
runs one workload, checks every job's simulated output and prints the
metrics. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root):

    python3 perfbench/run.py --workload table3-serial [--seed N]
                             [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --regen      # rewrite perfbench/reference/

The build goes to $CARGO_TARGET_DIR when set, else .bench_build/.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
WORKLOADS = ["table3-serial", "trace-replay", "sweep-resumable",
             "sweep-sampled"]
# The default seed and one held-out seed carry reference fingerprints.
REFERENCE_SEEDS = [1, 7]
DEFAULT_SEED = REFERENCE_SEEDS[0]
PER_LAYER = [
    "source.next_ns", "source.setup_ms", "sim.construct_ms",
    "cpu.driver_ns", "hierarchy.access_ns", "hierarchy.llc_path_ns",
    "hierarchy.private_hit_ns", "trace.coverage", "trace.overhead",
    "hierarchy.refs", "hierarchy.llc_lookups", "hierarchy.llc_hit_ratio",
    "hierarchy.llc_writes.fill", "hierarchy.llc_writes.clean_victim",
    "hierarchy.llc_writes.dirty_victim", "hierarchy.llc_writes.migration",
    "hierarchy.back_invalidations", "hierarchy.invalidations_on_hit",
    "hierarchy.dram_reads", "hierarchy.dram_writes",
    "mem.verifier_entries", "trace.mapped_mb", "checkpoint.bytes",
    "checkpoint.per_job", "stats.epoch_rows", "campaign.sink_bytes",
    "campaign.duplicate_share", "sampling.bound_violations",
]
UNITS = {"_ns": "ns", "_ms": "ms", "_s": "s", "_mb": "MB", "bytes": "B"}
# Paper Fig 14(a): LAP's average EPI relative to each baseline.
PAPER_EPI_DELTA = {"noni": -0.20, "ex": -0.12}
# Sampled metric rows checked against the full-simulation truth.
TRUTH_FIELDS = {
    "instructions": lambda fp: fp["instructions"],
    "cycles": lambda fp: fp["cycles"],
    "llcMisses": lambda fp: fp["llcMisses"],
    "llcHits": lambda fp: fp["llcHits"],
    "llcWritesTotal": lambda fp: (fp["llcWritesFill"]
                                  + fp["llcWritesCleanVictim"]
                                  + fp["llcWritesDirtyVictim"]
                                  + fp["llcWritesMigration"]),
    "dramReads": lambda fp: fp["dramReads"],
    "dramWrites": lambda fp: fp["dramWrites"],
    "epi": lambda fp: fp["epi"],
}
UNBOUNDED = 1e9  # the sampling engine's "no bound" ceiling
# Host memory-speed probe time at the reference speed (a 4-core x86
# box in a quiet period). Times are reported at this speed; see
# README.md, "Host speed".
PROBE_REFERENCE_S = 0.020


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def unit_of(name):
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    if name.endswith(("ratio", "share", "coverage", "overhead")):
        return "ratio"
    return "count"


def pool_workers():
    """Campaign pool size: nproc, at most 4."""
    return max(1, min(4, os.cpu_count() or 1))


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                           or ".bench_build")


def build():
    """Configures and builds the driver; returns its path or None."""
    out = build_dir()
    jobs = str(pool_workers())
    steps = [["cmake", "-S", HERE, "-B", out,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", out, "-j", jobs,
              "--target", "lapsim-perfbench"]]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as err:
            log("perfbench: build step failed:", err)
            return None
        if done.returncode != 0:
            log("perfbench: build failed:", " ".join(step))
            return None
    return os.path.join(out, "lapsim-perfbench")


def run_driver(binary, args, timeout):
    """Runs the driver; returns its parsed rows or None on failure."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("LAPSIM_FAST", "LAPSIM_REFS_SCALE")}
    try:
        done = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, env=env, timeout=timeout,
                              text=True)
    except (OSError, subprocess.TimeoutExpired) as err:
        log("perfbench: driver failed:", err)
        return None
    if done.returncode != 0:
        log("perfbench: driver exited with", done.returncode)
        return None
    return [json.loads(line) for line in done.stdout.splitlines()
            if line.startswith("{")]


def load_reference(seed):
    path = os.path.join(REFERENCE_DIR, "seed-%d.json" % seed)
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def bound_misses(job, truth):
    """Sampled metric rows outside their own reported bound.

    Returns (guaranteed, estimated). Profile and exact rows carry
    their full-run truth and bounds the sampling engine guarantees;
    planned rows carry profile-derived estimates, checked here
    against the committed full-run truth when there is one.
    """
    report = job.get("sampling")
    if not report:
        return 0, 0
    bad = 0
    for row in report["metrics"]:
        bound = row["relBound"]
        if bound >= UNBOUNDED:
            continue
        if report["hasFull"]:
            observed = row["observedRelError"]
        elif truth is not None and row["name"] in TRUTH_FIELDS:
            full = TRUTH_FIELDS[row["name"]](truth)
            if full == 0:
                continue
            observed = abs(row["sampled"] - full) / abs(full)
        else:
            continue
        bad += observed > bound * (1 + 1e-9) + 1e-12
    return (bad, 0) if report["hasFull"] else (0, bad)


def check_jobs(workload, seed, jobs, reference):
    """Marks each job row failed or not; returns the report lines."""
    mismatched = guaranteed = estimated = 0
    truths = {}
    for job in jobs:
        job["failed"] = not job["ok"]
        if not job["ok"]:
            continue
        # Solo probe jobs of the traced sweeps are only twin-checked;
        # the sampled campaign a sweep-resumable traced run adds is
        # checked against the sweep-sampled reference.
        section, label = workload, job["label"]
        if label.startswith("sampled:"):
            section, label = "sweep-sampled", label[len("sampled:"):]
        truths = reference.get(section + ".truth", {}) if reference else {}
        checked = reference is not None and not label.startswith("probe:")
        if checked and reference.get(section, {}).get(label) != job["fp"]:
            mismatched += 1
            job["failed"] = True
        hard, soft = bound_misses(job, truths.get(label))
        guaranteed += hard
        estimated += soft
        job["failed"] = job["failed"] or hard > 0
    twins = {}
    for job in jobs:
        if job["ok"]:
            twins.setdefault((job["label"], job["traced"]), job["fp"])
    perturbed = sum(1 for (label, traced), fp in twins.items()
                    if traced and twins.get((label, False)) != fp)
    for job in jobs:
        if job["traced"] and twins.get((job["label"], False)) != job.get("fp"):
            job["failed"] = True
    lines = []
    if reference is None:
        lines.append("output check: seed %d has no reference fingerprints; "
                     "only job failures and guaranteed sampling bounds "
                     "count (reference seeds: %s)"
                     % (seed, ", ".join(map(str, REFERENCE_SEEDS))))
    else:
        lines.append("output check: %d/%d jobs match the seed-%d reference "
                     "fingerprints" % (len(jobs) - mismatched, len(jobs),
                                       seed))
    lines.append("sampling: %d metric rows outside a guaranteed bound "
                 "(profile rows; these fail their job)" % guaranteed)
    if reference is not None and any(j.get("sampling") for j in jobs):
        lines.append("sampling: %d metric rows of planned jobs outside "
                     "their estimated bound against the committed "
                     "full-run truth (the engine documents planned bounds "
                     "as estimates, so these are reported, not failed)"
                     % estimated)
    if any(job["traced"] for job in jobs):
        lines.append("traced vs untraced simulated output: %s"
                     % ("identical" if perturbed == 0
                        else "%d jobs differ" % perturbed))
    return lines, guaranteed + estimated


def quantile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def properties(jobs, summary):
    # The workload's own jobs, not a traced run's extra probes.
    ok = [j for j in jobs if j["ok"]
          and not j["label"].startswith(("probe:", "sampled:"))]
    lookups = sum(j["fp"]["llcHits"] + j["fp"]["llcMisses"] for j in ok)
    misses = sum(j["fp"]["llcMisses"] for j in ok)
    measured = sum(j["measured_refs"] for j in ok)
    return [
        "workload properties: llc_lookups_per_ref %.4f  llc_miss_ratio %.4f"
        "  campaign.duplicate_share %.3f  mean_job_refs %.0f"
        % (lookups / measured if measured else 0.0,
           misses / lookups if lookups else 0.0,
           summary["duplicate_share"],
           statistics.mean(j["refs"] for j in ok) if ok else 0.0)]


def accuracy_line(seed, reference):
    """LAP's EPI deltas on the Fig 14 matrix (information only)."""
    source = "seed %d" % seed
    if reference is None:
        reference = load_reference(DEFAULT_SEED)
        source = "reference seed %d" % DEFAULT_SEED
    if reference is None:
        return []
    epi = {}
    for label, fp in reference.get("table3-serial", {}).items():
        mix, policy = label.split("/")
        epi.setdefault(mix, {})[policy] = fp["epi"]
    parts = []
    for base, paper in PAPER_EPI_DELTA.items():
        ratios = [p["lap"] / p[base] for p in epi.values()
                  if "lap" in p and base in p]
        if ratios:
            parts.append("LAP vs %s %+.1f%% (paper %+.0f%%)"
                         % (base, 100 * (statistics.mean(ratios) - 1),
                            100 * paper))
    return ["accuracy (information only, not gated; the model is not "
            "validated against hardware, %s, Table III mean EPI): %s"
            % (source, "; ".join(parts))]


def host_speed(summary):
    """Per-unit slowness factors from the host probes around each unit.

    Unit u (a serial job or one campaign) ran between probes u and
    u + 1; its factor is their mean over PROBE_REFERENCE_S. A unit
    whose probes failed takes the run's median factor.
    """
    probes = summary["host_probe_s"]
    valid = [p for p in probes if p > 0]
    if not valid:
        return [1.0] * len(summary["unit_wall_s"]), 1.0
    typical = statistics.median(valid) / PROBE_REFERENCE_S
    factors = []
    for u in range(len(summary["unit_wall_s"])):
        pair = [p for p in probes[u:u + 2] if p > 0]
        factors.append(statistics.mean(pair) / PROBE_REFERENCE_S
                       if pair else typical)
    return factors, typical


def end_to_end(jobs, summary):
    """The end-to-end metrics, with times at the reference host speed."""
    factors, typical = host_speed(summary)
    ok = [j for j in jobs if j["ok"]]
    walls = [j["wall_s"] for j in jobs]
    unit_walls = summary["unit_wall_s"]
    raw = {
        "refs_per_s": sum(j["refs"] for j in ok) / sum(unit_walls),
        "job_s.p50": statistics.median(walls),
        "setup_s": statistics.median(summary["setup_s"]),
        "peak_rss_mb": summary["peak_rss_mb"],
    }
    norm_walls = [j["wall_s"] / factors[j["unit"]] for j in jobs]
    metrics = {
        "refs_per_s": sum(j["refs"] for j in ok)
        / sum(w / f for w, f in zip(unit_walls, factors)),
        "job_s.p50": statistics.median(norm_walls),
        "setup_s": raw["setup_s"] / typical,
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    units = {"refs_per_s": "1/s", "job_s.p50": "s", "setup_s": "s",
             "peak_rss_mb": "MB"}
    lines = ["host speed: probe median %.2f ms (%d samples, %.2fx the "
             "%.0f ms reference); times are at the reference speed, raw "
             "values in brackets"
             % (typical * PROBE_REFERENCE_S * 1e3,
                len(summary["host_probe_s"]), typical,
                PROBE_REFERENCE_S * 1e3)]
    for name, value in metrics.items():
        lines.append("%-14s %14.6g %-4s [%.6g]"
                     % (name, value, units[name], raw[name]))
    if len(norm_walls) >= 100:
        lines.append("%-14s %14.6g s" % ("job_s.p90",
                                         quantile(norm_walls, 0.9)))
    else:
        lines.append("job_s.p90      not reported (%d jobs < 100)"
                     % len(norm_walls))
    failed = sum(1 for j in jobs if j["failed"])
    lines.append("%-14s %14.6g ratio (%d of %d jobs)"
                 % ("failed_frac", failed / len(jobs), failed, len(jobs)))
    lines.append("samples: %d jobs, %d set-up samples, %.2f s timed wall, "
                 "%d workers" % (len(jobs), len(summary["setup_s"]),
                                 sum(unit_walls), summary["workers"]))
    return ({k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            lines)


def measure(args):
    binary = build()
    if binary is None:
        return 1
    work = os.path.join(build_dir(), "work")
    rows = run_driver(binary, ["--workload", args.workload,
                               "--seed", str(args.seed),
                               "--seconds", str(args.seconds),
                               "--trace", str(args.trace),
                               "--workers", str(pool_workers()),
                               "--work-dir", work], timeout=170)
    if not rows or rows[-1].get("type") != "summary":
        return 1
    summary = rows[-1]
    jobs = [r for r in rows if r["type"] == "job"]
    if not jobs:
        log("perfbench: no job ran")
        return 1
    reference = load_reference(args.seed)
    check_lines, violations = check_jobs(args.workload, args.seed, jobs,
                                         reference)
    print("workload %s  seed %d  %s" % (args.workload, args.seed,
                                        "traced" if args.trace else
                                        "untraced"))
    if args.trace:
        layers = dict(summary["layers"])
        layers["sampling.bound_violations"] = float(violations)
        missing = [m for m in PER_LAYER if m not in layers]
        if missing:
            log("perfbench: traced run lacks", ", ".join(missing))
            return 1
        metrics = {m: {"value": layers[m], "unit": unit_of(m)}
                   for m in PER_LAYER}
        for name in PER_LAYER:
            print("%-36s %16.6g %s" % (name, layers[name], unit_of(name)))
        lines = summary["notes"]
    else:
        metrics, lines = end_to_end(jobs, summary)
    lines = lines + check_lines + properties(jobs, summary)
    if args.workload == "table3-serial":
        lines += accuracy_line(args.seed, reference)
    for line in lines:
        print(line)
    failed = sum(1 for j in jobs if j["failed"])
    print(json.dumps({"correct": failed == 0, "attempted": len(jobs),
                      "failed": failed, "metrics": metrics}))
    return 0


def regen():
    """Rewrites the reference fingerprints for REFERENCE_SEEDS."""
    binary = build()
    if binary is None:
        return 1
    work = os.path.join(build_dir(), "work")
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for seed in REFERENCE_SEEDS:
        reference = {}
        for workload in WORKLOADS:
            rows = run_driver(binary, ["--workload", workload,
                                       "--seed", str(seed), "--regen",
                                       "--workers", str(pool_workers()),
                                       "--work-dir", work], timeout=1800)
            if rows is None:
                return 1
            for row in rows:
                if row["type"] != "job":
                    continue
                if not row["ok"]:
                    log("perfbench: job failed:", row["label"], row["error"])
                    return 1
                key = workload
                label = row["label"]
                if label.startswith("truth:"):
                    key, label = workload + ".truth", label[len("truth:"):]
                known = reference.setdefault(key, {})
                if known.setdefault(label, row["fp"]) != row["fp"]:
                    log("perfbench: %s ran twice with different output"
                        % label)
                    return 1
            log("perfbench: seed %d %s: %d jobs" % (
                seed, workload, len(reference.get(workload, {}))))
        path = os.path.join(REFERENCE_DIR, "seed-%d.json" % seed)
        with open(path, "w") as f:
            json.dump(reference, f, indent=1, sort_keys=True)
            f.write("\n")
    shutil.rmtree(work, ignore_errors=True)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--regen", action="store_true",
                        help="rewrite the reference fingerprints")
    args = parser.parse_args()
    if args.regen:
        return regen()
    if not args.workload:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
