#!/usr/bin/env python3
"""Build and run the rlcx end-to-end benchmark.

    python3 e2ebench/run.py --workload characterize --seed 1 --seconds 12 --trace 0
    python3 e2ebench/run.py --smoke

Run from the repository root.  The benchmark builds its own optimised
binary from the sources in a separate build tree ($CARGO_TARGET_DIR, or
.bench_build, under e2ebench/), so a missing or stale build/ never matters
and no repository build file is touched.  The last line of stdout is the
result object; the line before it records the environment.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("characterize", "tree_skew", "serve_mix")


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def source_id():
    """The commit when the tree is a git checkout, else a digest of the
    sources the benchmark builds."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "e2ebench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def build(build_dir):
    """Configure once, then build the one target (a no-op when fresh)."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "e2ebench",
                  "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=880)
        if done.returncode != 0:
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload at a tiny size, every check")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no rlcx sources next to e2ebench/ (expected %s/src)" % ROOT)
        return 2

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(ROOT, target, "e2ebench"))
    if not build(build_dir):
        return 1

    cmd = [os.path.join(build_dir, "e2ebench"), "--workdir",
           os.path.join(build_dir, "work")]
    if args.smoke:
        cmd.append("--smoke")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--commit", source_id()]
        if args.trace:
            traces = os.path.join(build_dir, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-out", os.path.join(
                traces, "%s-seed%d.json" % (args.workload, args.seed))]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=170)
    except subprocess.TimeoutExpired:
        log("benchmark overran; stopping it")
        proc.kill()
        proc.wait()
        return 1
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
