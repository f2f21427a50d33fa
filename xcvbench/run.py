#!/usr/bin/env python3
"""Build and run the xcverifier benchmark for one workload.

    python3 xcvbench/run.py --workload matrix|serve --seed N --seconds S --trace 0|1

Run from the repository root. Builds ``xcvbench`` (a package of its own
that links the workspace crates by path) in release mode, runs it pinned to
at most two CPUs, stamps the machine, and prints as the last stdout line
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones (``peak_rss_mb`` is the
benchmark process's peak resident set, measured here); with ``--trace 1``
they are the per-layer ones. The machine stamp, the seed and the result
are also written to ``xcvbench/out/``, with the spans of a traced run.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("matrix", "serve")
MAX_CPUS = 2


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(target_dir(), "release", "xcvbench")


def command_output(cmd):
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def source_digest():
    """SHA-256 over the workspace sources the benchmark builds from."""
    h = hashlib.sha256()
    for top in ("crates", "src", "xcvbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in ("out", "target"))
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".tsv", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def machine():
    model = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "rustc": command_output(["rustc", "-V"]),
        "git_rev": command_output(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_digest(),
    }


def pin_cpus():
    cpus = sorted(os.sched_getaffinity(0))[:MAX_CPUS]
    os.sched_setaffinity(0, cpus)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    if binary is None:
        log("run.py: build failed")
        return 1
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    stamp = machine()
    log("machine: " + json.dumps(stamp))

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            preexec_fn=pin_cpus)
    stdout = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        log(f"run.py: benchmark exited with {proc.returncode}")
        return 1
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("run.py: benchmark printed no result")
        return 1
    if args.trace == 0:
        # ru_maxrss is in KiB on Linux.
        result["metrics"]["peak_rss_mb"] = {"value": usage.ru_maxrss / 1024.0, "unit": "MB"}

    for name, m in result["metrics"].items():
        log(f"  {name:<32} {m['value']:>16.6g} {m['unit']}")
    log(f"  checks: {result['attempted']} attempted, {result['failed']} failed")
    record = {"machine": stamp, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "result": result}
    path = os.path.join(out, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
