#!/usr/bin/env python3
"""Build and run the flashqos benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload served_oltp --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload sweep_paper --seed 3 --seconds 20 --trace 1
    python3 perfbench/run.py --selftest

Builds the repository's libraries and the benchmark binary from source
(Release, plus a FLASHQOS_OBS=OFF twin for the traced run's obs leg) under
$CARGO_TARGET_DIR or .bench_build, runs one measurement, and prints as its
last stdout line one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and every metric.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("served_oltp", "backlog_burst", "sweep_paper")
VARIANTS = {"release": "ON", "obsoff": "OFF"}
# Extra set-up samples taken in fresh processes (the P_k memo is
# process-wide, so a second set-up in one process would be a cache hit).
EXTRA_SETUPS = 2
STEP_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_digest():
    """Content hash of everything the binaries are built from."""
    h = hashlib.sha1()
    roots = [os.path.join(ROOT, "CMakeLists.txt"), os.path.join(ROOT, "src"), HERE]
    files = []
    for r in roots:
        if os.path.isfile(r):
            files.append(r)
            continue
        for d, dirs, names in os.walk(r):
            dirs[:] = sorted(x for x in dirs if not x.startswith("."))
            files.extend(os.path.join(d, n) for n in sorted(names))
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build(digest):
    """Build both variants unless this exact source tree is already built."""
    binaries = {}
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for name, obs in VARIANTS.items():
        bdir = os.path.join(build_root(), "perfbench-" + name)
        binary = os.path.join(bdir, "flashqos_perfbench")
        stamp = os.path.join(bdir, "source.sha1")
        binaries[name] = binary
        if os.path.exists(binary) and os.path.exists(stamp):
            with open(stamp) as fh:
                if fh.read().strip() == digest:
                    continue
        os.makedirs(bdir, exist_ok=True)
        log = os.path.join(bdir, "build.log")
        with open(log, "w") as out:
            for cmd in (
                ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release",
                 "-DFLASHQOS_OBS=" + obs],
                ["cmake", "--build", bdir, "--target", "flashqos_perfbench",
                 "-j", jobs],
            ):
                if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                    with open(log) as fh:
                        tail = fh.read()[-3000:]
                    fail("build failed (%s):\n%s" % (" ".join(cmd), tail))
        with open(stamp, "w") as fh:
            fh.write(digest + "\n")
    return binaries


def run_json(cmd):
    """Run one benchmark process; return (parsed last stdout line, stdout)."""
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=STEP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if p.returncode != 0:
        fail("exit %d: %s\n%s" % (p.returncode, " ".join(cmd), p.stderr[-3000:]))
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    if not lines:
        fail("no output: " + " ".join(cmd))
    return json.loads(lines[-1]), p.stdout


def host_fingerprint(digest):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {"cpu": cpu, "nproc": os.cpu_count(), "build": "Release",
            "commit": commit or "tree-" + digest[:12]}


def measure(workload, args, binaries):
    """One run of one workload; returns the result dict (with "detail")."""
    main_bin = binaries["release"]
    common = ["--workload", workload, "--seed", str(args.seed)]
    if args.trace == 0:
        res, _ = run_json([main_bin, "run"] + common +
                          ["--seconds", str(args.seconds), "--trace", "0"])
        setups = [res["metrics"]["setup_s"]["value"]]
        for _ in range(EXTRA_SETUPS):
            s, _ = run_json([main_bin, "setup"] + common)
            setups.append(s["setup_s"])
        res["metrics"]["setup_s"]["value"] = statistics.median(setups)
        d = res["detail"]
        d["setup_samples_s"] = setups
        d["samples"] = {
            "throughput_kreq_s": d["passes"], "cpu_us_per_req": d["passes"],
            "sim_deferred_pct": d["sim_reads"],
            "sim_delay_p50_ms": d["sim_delay_samples"],
            "sim_delay_p99_ms": d["sim_delay_samples"],
            "setup_s": len(setups), "peak_rss_mb": 1,
        }
    else:
        out_dir = os.path.join(build_root(), "traces")
        os.makedirs(out_dir, exist_ok=True)
        trace_file = os.path.join(out_dir, "%s-seed%d.json" % (workload, args.seed))
        res, _ = run_json([main_bin, "run"] + common +
                          ["--seconds", str(args.seconds), "--trace", "1",
                           "--trace-out", trace_file])
        # obs leg: three checked passes (`run --seconds 0`) in each build,
        # twice, alternating builds so host drift hits both sides alike.
        # Equal work, so off wall / on wall = on throughput / off throughput.
        kreq_s = {"release": [], "obsoff": []}
        for _ in range(2):
            for variant in ("obsoff", "release"):
                w, _ = run_json([binaries[variant], "run"] + common +
                                ["--seconds", "0", "--trace", "0"])
                res["failed"] += w["failed"]
                kreq_s[variant].append(w["metrics"]["throughput_kreq_s"]["value"])
        on = statistics.median(kreq_s["release"])
        off = statistics.median(kreq_s["obsoff"])
        res["metrics"]["obs.hot_path_share"]["value"] = 1.0 - on / off
        res["detail"]["obs_leg_kreq_s"] = kreq_s
        res["detail"]["chrome_trace"] = os.path.relpath(trace_file, ROOT)
    res["correct"] = bool(res["correct"]) and res["failed"] == 0
    samples = res["detail"].get("samples", {})
    print("%s detail: %s" % (workload, json.dumps(res["detail"])))
    for name, m in res["metrics"].items():
        n = " (n=%s)" % samples[name] if name in samples else ""
        print("%s %-40s %.6g %s%s" % (workload, name, m["value"], m["unit"], n))
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    help="one workload, or all three in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run the benchmark helpers' self-tests and exit")
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        fail("flashqos sources not found beside %s; run from a full checkout" % HERE, 2)
    if not args.selftest and not args.workload:
        fail("--workload is required", 2)

    digest = source_digest()
    binaries = build(digest)
    if args.selftest:
        sys.exit(subprocess.call([binaries["release"], "selftest"]))

    print("host: " + json.dumps(host_fingerprint(digest)))
    if args.workload != "all":
        res = measure(args.workload, args, binaries)
        print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                          "failed": res["failed"], "metrics": res["metrics"]}))
        return
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        res = measure(w, args, binaries)
        out["correct"] = out["correct"] and res["correct"]
        out["attempted"] += res["attempted"]
        out["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            out["metrics"][w + "." + name] = m
    print(json.dumps(out))
    if not out["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
