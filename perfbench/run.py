#!/usr/bin/env python3
"""Decision-serving benchmark: one command per run.

    python3 perfbench/run.py --workload fleet-warm --seed 1 --seconds 20 --trace 0

Builds the gpupm library, the `gpupm` CLI and the benchmark program from
this checkout in Release (into $CARGO_TARGET_DIR or .bench_build/),
trains the Random Forest model once per built `gpupm` binary, runs one
workload and prints, as the last line of stdout, one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. The line before
it is a `# context {...}` record of the host and the run.

`python3 perfbench/run.py --selftest` builds and runs the tests of the
benchmark's own machinery. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet-warm", "fleet-churn", "wire-mixed")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(targets):
    for need in ("src/CMakeLists.txt", "tools/gpupm_cli.cpp"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail(f"{need} not found: run from a full gpupm checkout", 2)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", *targets])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                with open(log) as r:
                    sys.stderr.write(r.read()[-4000:])
                fail("build failed")
    return out


def model_for(out, gpupm):
    """The model trained by this build's gpupm, training it if needed."""
    key = sha256(gpupm)[:16]
    models = os.path.join(out, "models")
    os.makedirs(models, exist_ok=True)
    path = os.path.join(models, f"model-{key}.rf")
    if not os.path.isfile(path):
        for old in os.listdir(models):
            os.remove(os.path.join(models, old))
        fd, tmp = tempfile.mkstemp(dir=models, suffix=".tmp")
        os.close(fd)
        r = subprocess.run([gpupm, "train", "--jobs", "1", "--out", tmp],
                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                           text=True)
        if r.returncode:
            os.remove(tmp)
            fail(f"model training failed: {r.stderr[-2000:]}")
        os.replace(tmp, path)
    return path


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this pass, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        out = build(["perfbench_selftest"])
        sys.exit(subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode)
    if not args.workload:
        ap.error("--workload is required")

    out = build(["gpupm_cli", "gpupm_perfbench"])
    gpupm = os.path.join(out, "gpupm")
    model = model_for(out, gpupm)
    cmd = [os.path.join(out, "gpupm_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--model", model, "--gpupm", gpupm]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = [l for l in r.stdout.splitlines() if l.startswith("PERFBENCH ")]
    if r.returncode not in (0, 1) or not lines:
        sys.stderr.write(r.stderr[-4000:])
        fail(f"{args.workload} failed (exit {r.returncode})")
    res = json.loads(lines[-1][len("PERFBENCH "):])

    measured = res["layer" if args.trace else "e2e"]
    names = declared_metrics(args.trace) or sorted(measured)
    missing = [n for n in names if n not in measured]
    if missing:
        fail(f"metrics not measured: {', '.join(missing)}")
    attempted = int(res["attempted"])
    failed = int(res["failed"])
    context = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu_model": res["cpu_model"],
        "build_type": BUILD_TYPE, "simd_path": res["simd_path"],
        "pinning": res["pinning"],
        "model_sha256": sha256(model),
        "mismatches": res["mismatches"],
        "failed_pct": 100.0 * failed / max(1, attempted),
    }
    context.update({k: v["value"] for k, v in res["context"].items()})
    print("# context " + json.dumps(context))
    print(json.dumps({
        "correct": res["mismatches"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: measured[n] for n in names},
    }))
    sys.exit(0 if res["mismatches"] == 0 else 1)


if __name__ == "__main__":
    main()
