#!/usr/bin/env python3
"""Repository benchmark: builds perfbench_driver from source, generates a
workload's inputs from a seed, and runs it in its own process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all  --seed N --seconds S
    python3 perfbench/run.py --selftest

Run it from the repository root. The last line of standard output is the
JSON result (keys correct, attempted, failed, metrics). Build output and
generated inputs go to a per-checkout directory under $CARGO_TARGET_DIR,
else .bench_build. See perfbench/NOTES.md for the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["flat-stdcell", "ml-stdcell-flow", "serve-mix"]
# A run that is not done by then is stopped (with every process it started).
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    """This checkout's build and work tree: one per source path, so two
    checkouts that share an absolute $CARGO_TARGET_DIR never build or run
    each other's sources."""
    base = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    key = hashlib.sha256(os.path.realpath(ROOT).encode()).hexdigest()[:12]
    return os.path.join(base, f"perfbench-{key}")


def git_sha():
    """HEAD of the checkout, or "unknown" when ROOT is not the top of a git
    work tree (a checkout nested in another repository is not that one)."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if (out.returncode != 0 or len(lines) != 2
            or os.path.realpath(lines[0]) != os.path.realpath(ROOT)):
        return "unknown"
    return lines[1]


def source_digest():
    """SHA-256 over the sources the benchmark is built from, so a result names
    the code it measured even outside a git checkout."""
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    path = os.path.join(base, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def run_checked(cmd, **kwargs):
    """Runs cmd in its own process group, so a timeout stops everything it
    started; returns the CompletedProcess."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def build():
    out = os.path.join(build_dir(), "build")
    os.makedirs(out, exist_ok=True)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        # RelWithDebInfo is the root project's default build type.
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise RuntimeError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "-j", jobs, "--target", "perfbench_driver"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise RuntimeError("build failed")
    return (os.path.join(out, "perfbench_driver"),
            os.path.join(out, "tools", "fhp_serve"))


def declared_metrics(trace):
    """Name -> unit of the metrics BENCHMARK.json declares for this kind of
    run, or None when the tree has no BENCHMARK.json."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def finish_result(line, trace):
    """Checks perfbench_driver's result against BENCHMARK.json. A traced run
    reports every declared layer: a layer the workload never enters reads
    0."""
    result = json.loads(line)
    declared = declared_metrics(trace)
    if declared is None:
        return result
    for name, metric in result["metrics"].items():
        if declared.get(name) != metric["unit"]:
            raise RuntimeError(f"metric {name} ({metric['unit']}) is not "
                               "declared with that unit in BENCHMARK.json")
    if trace:
        for name, unit in declared.items():
            result["metrics"].setdefault(name, {"value": 0, "unit": unit})
    return result


def run_one(args, driver, serve_bin):
    work = os.path.join(build_dir(), "work", args.workload)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--dir", work]
    t0 = time.monotonic()
    gen = run_checked([driver, "gen"] + common, stdout=sys.stderr)
    if gen.returncode != 0:
        raise RuntimeError("input generation failed")
    log(f"{args.workload}: inputs generated in {time.monotonic() - t0:.2f}s")
    res = run_checked([driver, "run", "--trace", str(args.trace),
                       "--serve-bin", serve_bin, "--git-sha", git_sha(),
                       "--source-digest", source_digest()] + common,
                      stdout=subprocess.PIPE, text=True)
    lines = res.stdout.splitlines()
    if not lines or not lines[-1].startswith('{"correct"'):
        sys.stdout.write(res.stdout)
        raise RuntimeError(f"{args.workload}: the run printed no result")
    print("\n".join(lines[:-1]))
    print(json.dumps(finish_result(lines[-1], args.trace)))
    return res.returncode


def run_all(args):
    """Each workload in its own process; prints a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(res.stdout)
        lines = res.stdout.strip().splitlines()
        if res.returncode != 0 or not lines:
            status = 1
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no fhp source tree under {ROOT}; nothing to build")
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        driver, serve_bin = build()
        if args.selftest:
            return run_checked([driver, "selftest"]).returncode
        return run_one(args, driver, serve_bin)
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as e:
        log(str(e))
        return 1


if __name__ == "__main__":
    sys.exit(main())
