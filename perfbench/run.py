#!/usr/bin/env python3
"""Repo benchmark runner: builds lzbench from source, runs one workload and
prints one JSON result line (perfbench/README.md).

    python3 perfbench/run.py --workload nginx_ttbr --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --list          # every metric with its unit
    python3 perfbench/run.py --test          # the benchmark's own tests
    python3 perfbench/run.py --pin 100       # rewrite pins.tsv for seeds 0..99

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the root. The last stdout line of a run is
{"correct", "attempted", "failed", "metrics"}; the line before it records the
workload, seed and simulated fingerprint.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PINS = BENCH / "pins.tsv"
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build(targets):
    """Configures (once) and builds `targets`; returns the build directory."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("run.py: simulator sources (src/) not found next to perfbench/")
    out = build_dir()
    configure = ["cmake", "-S", str(BENCH), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(out), "-j", jobs, "--target", *targets]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        # A cache from another checkout location cannot be reused.
        shutil.rmtree(out)
        subprocess.run(configure, check=True, stdout=sys.stderr)
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    return out


def lzbench(out, args):
    """Runs lzbench and returns its stdout; raises on failure or timeout."""
    proc = subprocess.Popen([str(out / "lzbench"), *args], stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"run.py: lzbench timed out after {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise SystemExit(f"run.py: lzbench exited with {proc.returncode}")
    return stdout


def load_pins():
    pins = {}
    if PINS.is_file():
        for line in PINS.read_text().splitlines():
            if line.startswith("#") or not line.strip():
                continue
            workload, seed, ops, sim, digest = line.split()
            pins[(workload, int(seed))] = (int(ops), int(sim), digest)
    return pins


def declared_metrics(run):
    """Metric names BENCHMARK.json declares for `run`, or None without it."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return {m["name"] for m in spec["end_to_end" if run == "end_to_end" else "per_layer"]}


def run_workload(args):
    out = build(["lzbench"])
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = out / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(spans / f"{args.workload}-seed{args.seed}.tsv")]
    report = json.loads(lzbench(out, cmd).strip().splitlines()[-1])

    fp = report["fingerprint"]
    pin = load_pins().get((args.workload, args.seed))
    pinned = pin is not None and pin[0] == fp["ops"]
    pin_ok = not pinned or (pin[1] == fp["sim"] and pin[2] == fp["digest"])
    attempted, failed = report["attempted"], report["failed"]
    metrics = report["metrics"]
    if not (fp["blocks_agree"] and pin_ok):
        # A fingerprint mismatch fails every op of the run.
        failed = attempted
        if "success_rate" in metrics:
            metrics["success_rate"]["value"] = 0.0

    run = "per_layer" if args.trace else "end_to_end"
    expected = declared_metrics(run)
    if expected is not None and set(metrics) != expected:
        missing = sorted(expected - set(metrics))
        extra = sorted(set(metrics) - expected)
        raise SystemExit(f"run.py: metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")

    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "host_speed": report["host_speed"], "fingerprint": fp,
                      "pinned": pinned, "pin_ok": pin_ok}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def list_metrics():
    out = build(["lzbench"])
    sys.stdout.write(lzbench(out, ["--list"]))
    return 0


def self_test():
    """The benchmark's own tests: C++ unit tests (names, units, percentile
    rule, seeded determinism), the catalogue against BENCHMARK.json, pinned
    fingerprints of seed 1, traced == untraced fingerprints, and per-layer
    shares that add up to 1."""
    out = build(["lzbench", "lzbench_test"])
    subprocess.run([str(out / "lzbench_test")], check=True, stdout=sys.stderr)

    rows = [line.split()[:3] for line in lzbench(out, ["--list"]).splitlines()]
    for run in ("end_to_end", "per_layer"):
        declared = declared_metrics(run)
        have = {name for name, _, r in rows if r == run}
        assert declared is None or declared == have, f"{run} metrics differ from BENCHMARK.json"

    pins = load_pins()
    for workload in sorted({w for w, _ in pins}):
        prints = []
        for trace, seconds in (("0", "0"), ("1", "1")):
            line = lzbench(out, ["--workload", workload, "--seed", "1", "--seconds", seconds,
                                 "--trace", trace])
            report = json.loads(line.strip().splitlines()[-1])
            fp = report["fingerprint"]
            assert fp["blocks_agree"] and report["failed"] == 0, workload
            prints.append((fp["ops"], fp["sim"], fp["digest"]))
        assert prints[0] == prints[1], f"{workload}: traced fingerprint differs"
        assert pins.get((workload, 1)) in (None, prints[0]), f"{workload}: seed 1 differs from pin"
        # Layer self times plus the unattributed rest make up the op time.
        shares = sum(v["value"] for k, v in report["metrics"].items() if k.endswith(".share"))
        assert abs(shares - 1) < 1e-6, f"{workload}: shares add up to {shares}"
    log("run.py --test: ok")
    return 0


def pin(seeds):
    out = build(["lzbench"])
    rows = ["# workload seed verify_ops sim digest -- simulated fingerprint of the first",
            "# verify_ops ops; regenerate with `python3 perfbench/run.py --pin N`"]
    for workload in ("nginx_ttbr", "nvm_pan", "domain_churn", "a64_streams"):
        for seed in range(seeds):
            line = lzbench(out, ["--workload", workload, "--seed", str(seed),
                                 "--seconds", "0"])
            fp = json.loads(line.strip().splitlines()[-1])["fingerprint"]
            rows.append(f"{workload} {seed} {fp['ops']} {fp['sim']} {fp['digest']}")
    PINS.write_text("\n".join(rows) + "\n")
    log(f"run.py: wrote {len(rows) - 2} pins to {PINS}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--list", action="store_true")
    p.add_argument("--test", action="store_true")
    p.add_argument("--pin", type=int, metavar="N")
    args = p.parse_args()
    os.chdir(ROOT)
    if args.list:
        return list_metrics()
    if args.test:
        return self_test()
    if args.pin:
        return pin(args.pin)
    if not args.workload:
        p.error("--workload is required")
    try:
        return run_workload(args)
    except subprocess.CalledProcessError as e:
        log(f"run.py: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
