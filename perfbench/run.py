#!/usr/bin/env python3
"""The repository benchmark: serve-mix, regen and fleet workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds `perfbench/` (a Cargo package
of its own, path-dependent on `crates/`) into `$CARGO_TARGET_DIR`
(default `.bench_build`), then:

* `--trace 0` times the workload's set-up alone in SETUP_SAMPLES fresh
  `nvp-perfbench setup` processes, then starts a fresh `nvp-perfbench rep`
  process per repetition until `--seconds` have passed (at least
  MIN_REPS repetitions), checks every repetition's outputs and exact work
  counters, and reports the median of each end-to-end metric (`setup_s`
  over the set-up processes);
* `--trace 1` makes one untraced repetition of the workload, then one
  traced pass of every workload and one probe of the lower layers, each
  in a fresh process, and reports every per-layer metric.

The metric lists come from BENCHMARK.json at the repository root. The
last stdout line is the result object; the lines before it are the
run's envelope and every metric by name with its unit. NOTES.md says
what each workload and metric measures.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
MIN_REPS = 2
# Set-up takes milliseconds, and a vCPU of a shared host stretches it
# several-fold now and then; the median of many cold samples is steady.
SETUP_SAMPLES = 15
# Every run must end within 180 s; stop starting repetitions well before.
DEADLINE_S = 150

# Workload-specific metrics, printed beside the gated ones (units as
# printed; `us` is microseconds).
NAMED = {
    "serve-mix": [
        ("run_hit_p50_us", "us"), ("run_hit_p99_us", "us"),
        ("run_miss_p50_us", "us"), ("run_miss_p99_us", "us"),
        ("serve_rps", "req/s"), ("serve_stream_s", "s"), ("serve.hit_samples", "count"),
        ("serve.miss_samples", "count"), ("serve.connects_per_request", "ratio"),
    ],
    "regen": [("regen_s", "s")],
    "fleet": [("fleet_cold_s", "s"), ("fleet_warm_devices_per_s", "devices/s")],
}

# Per-layer metric → (pass it comes from, key in that pass's record).
# A pass is "serve-mix", "regen" or "fleet" (traced passes), "probe", or
# "self" (the traced pass of the workload being run).
RENAMED = {
    "serve.run_hit_p99_us": ("serve-mix", "run_hit_p99_us"),
    "serve.run_miss_p50_us": ("serve-mix", "run_miss_p50_us"),
    "serve.run_miss_p99_us": ("serve-mix", "run_miss_p99_us"),
    "serve.rps": ("serve-mix", "serve_rps"),
    "fleet.warm_devices_per_s": ("fleet", "fleet_warm_devices_per_s"),
    "catalog.compile_count": ("self", "catalog.compile_count"),
}
PASS_OF_PREFIX = [
    ("serve.", "serve-mix"), ("catalog.simulate_us.", "serve-mix"),
    ("catalog.", "probe"), ("sim.", "probe"), ("quality.", "probe"),
    ("trace.", "probe"), ("repro.", "regen"), ("fleet.", "fleet"),
    ("exec.", "fleet"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, env=env).returncode != 0:
        return None
    exe = os.path.join(target, "release", "nvp-perfbench")
    return exe if os.path.isfile(exe) else None


def child(exe, args, timeout):
    """One fresh benchmark process; its last stdout line, parsed."""
    try:
        proc = subprocess.run([exe] + args, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        log(f"{' '.join(args)}: timed out")
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"{' '.join(args)}: exit {proc.returncode}")
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        log(f"{' '.join(args)}: unreadable result line")
        return None


def envelope(workload, seed, reps, state):
    def cmd(*c):
        try:
            r = subprocess.run(c, cwd=ROOT, capture_output=True, text=True)
            return r.stdout.strip() if r.returncode == 0 else None
        except OSError:
            return None
    digest = hashlib.sha256()
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for f in sorted(filenames):
                if f.endswith((".rs", ".toml", ".txt")):
                    path = os.path.join(dirpath, f)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
    return {
        "host_cpus": len(os.sched_getaffinity(0)),
        "commit": cmd("git", "rev-parse", "--short=12", "HEAD") or "unknown",
        "source_sha256": digest.hexdigest()[:16],
        "rustc": cmd("rustc", "-V") or "unknown",
        "workload": workload,
        "seed": seed,
        "repetitions": reps,
        "cache_state": state,
    }


def timed(exe, workload, seed, seconds):
    """Set-up samples, then repetitions; returns both and how many died."""
    args = [workload, "--seed", str(seed)]
    started = time.monotonic()
    setups, lost = [], 0
    for _ in range(SETUP_SAMPLES):
        rec = child(exe, ["setup"] + args, 30)
        if rec is None:
            lost += 1
        else:
            setups.append(rec)
    start = time.monotonic()
    recs, lost_reps = [], 0
    while True:
        elapsed = time.monotonic() - start
        done = len(recs) + lost_reps
        # Start another repetition only while it would end nearer to the
        # measuring time than stopping now would.
        per_rep = elapsed / done if done else 0
        if done >= MIN_REPS and (elapsed + per_rep / 2 >= seconds
                                 or time.monotonic() - started >= DEADLINE_S):
            break
        rec = child(exe, ["rep"] + args, 170 - (time.monotonic() - started))
        if rec is None:
            lost_reps += 1
            if lost_reps >= MIN_REPS:
                break
        else:
            recs.append(rec)
    return setups, recs, lost + lost_reps


def report(result, env, named, units):
    print(json.dumps({"envelope": env}))
    for name, value in sorted(named.items()):
        text = str(int(value)) if float(value).is_integer() else f"{value:.6g}"
        print(f"{name:42} {text:>16} {units.get(name, '')}")
    print(json.dumps(result))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    seed = args.seed % (1 << 63)

    exe = build()
    if exe is None:
        log("perfbench: build failed")
        return 1

    if args.trace == 0:
        setups, recs, lost = timed(exe, args.workload, seed, args.seconds)
        if not recs or not setups:
            log("perfbench: no repetition completed")
            return 1
        counters = recs[0]["counters"]
        drift = sum(1 for r in recs[1:] if r["counters"] != counters)
        if drift:
            log(f"perfbench: exact counters differ between repetitions: "
                f"{[r['counters'] for r in recs]}")
        attempted = sum(r["attempted"] for r in setups + recs) + len(recs) + lost
        failed = sum(r["failed"] for r in setups + recs) + drift + lost
        metrics = {}
        for m in spec["end_to_end"]:
            source = setups if m["name"] == "setup_s" else recs
            values = [r["metrics"][m["name"]] for r in source if m["name"] in r["metrics"]]
            if len(values) != len(source):
                log(f"perfbench: metric {m['name']} missing from a repetition")
                return 1
            metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
        named = {k: statistics.median(r["metrics"][k] for r in recs)
                 for k, _ in NAMED[args.workload]}
        named.update({k: v["value"] for k, v in metrics.items()})
        named.update({f"counter.{k}": v for k, v in counters.items()})
        units = dict(NAMED[args.workload])
        units.update({m["name"]: m["unit"] for m in spec["end_to_end"]})
        units.update({f"counter.{k}": "count" for k in counters})
        result = {"correct": failed == 0, "attempted": attempted,
                  "failed": failed, "metrics": metrics}
        state = ("fresh process per repetition: catalog memos and caches start "
                 "cold; fleet's warm replay reuses the cold job's cell cache")
        report(result, envelope(args.workload, seed, len(recs), state), named, units)
        return 0

    # Traced run: one untraced repetition for the overhead ratio, then a
    # traced pass of every workload and a probe, each a fresh process.
    started = time.monotonic()

    def left():
        return 170 - (time.monotonic() - started)

    plain = child(exe, ["rep", args.workload, "--seed", str(seed)], left())
    passes = {}
    for w in workloads:
        passes[w] = child(exe, ["traced", w, "--seed", str(seed)], left())
    passes["probe"] = child(exe, ["probe", args.workload], left())
    passes["self"] = passes.get(args.workload)
    broken = [k for k, v in passes.items() if v is None]
    if plain is None or broken:
        log(f"perfbench: traced passes failed: {broken or ['untraced repetition']}")
        return 1

    def lookup(name):
        if name == "bench.traced_over_untraced":
            return passes["self"]["metrics"]["job_cpu_s"] / plain["metrics"]["job_cpu_s"]
        src, key = RENAMED.get(name, (None, name))
        if src is None:
            src = next(p for prefix, p in PASS_OF_PREFIX if name.startswith(prefix))
        rec = passes[src]
        return rec["metrics"].get(key, rec["counters"].get(key))

    metrics, missing = {}, []
    for m in spec["per_layer"]:
        value = lookup(m["name"])
        if value is None:
            missing.append(m["name"])
        else:
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if missing:
        log(f"perfbench: per-layer metrics missing: {missing}")
        return 1
    recs = [plain] + [v for k, v in passes.items() if k != "self"]
    attempted = sum(r["attempted"] for r in recs)
    failed = sum(r["failed"] for r in recs)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    named = {k: v["value"] for k, v in metrics.items()}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    state = ("traced passes in fresh processes; lower layers probed with "
             "warm catalog memos except the catalog first-call costs")
    report(result, envelope(args.workload, seed, 1, state), named, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
