#!/usr/bin/env python3
"""Build and run one perfbench workload from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workspace's release `stark-worker` and the benchmark binary
(into $CARGO_TARGET_DIR, default `.bench_build`), then runs the workload.
The last stdout line is the JSON result. Traces and scratch files go under
`perfbench/out/`. Exits non-zero without a result when the program's
sources are missing or anything fails.
"""

import argparse
import hashlib
import os
import pathlib
import shutil
import signal
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ["dist-shuffle", "local-query", "serve-piglet", "stream-ivm"]
RUN_TIMEOUT_S = 170


def tree_digest() -> str:
    """A digest of the program sources, standing in for a git revision."""
    h = hashlib.sha256()
    roots = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", ROOT / "crates", ROOT / "third_party",
             ROOT / "perfbench" / "src", ROOT / "perfbench" / "Cargo.toml"]
    for root in roots:
        files = [root] if root.is_file() else sorted(p for p in root.rglob("*") if p.is_file())
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def build(env: dict, *cargo_args: str) -> None:
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *cargo_args]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
        sys.exit(3)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "stark-worker").is_dir():
        print(f"perfbench: no stark-rs workspace at {ROOT}; nothing to build", file=sys.stderr)
        return 2

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    out = ROOT / "perfbench" / "out"
    tmp = out / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))

    build(env, "-p", "stark-worker")
    build(env, "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml"))

    cmd = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--worker-bin", str(target / "release" / "stark-worker"),
        "--rev", tree_digest(),
        "--out-dir", str(out),
    ]
    # workers and their shuffle stores live under the run's own temp dir
    run_env = dict(env, TMPDIR=str(tmp))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=run_env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s; killed", file=sys.stderr)
        code = 4
    finally:
        # the benchmark's session holds any worker it forked
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
