#!/usr/bin/env python3
"""Build the perfbench harness from source and run one workload.

Usage, from the root of a cebis checkout:

    python3 perfbench/run.py --workload sweep|live|socket \
        [--seed N] [--seconds S] [--trace 0|1] [--small] \
        [--perturb-reference]

The harness is configured and built in Release (perfbench/CMakeLists.txt
compiles the library from ../src) into $CARGO_TARGET_DIR, or
.bench_build when that is unset. Build output goes to stderr. The
harness's stdout is passed through; its last line is the result JSON
({"correct", "attempted", "failed", "metrics"}). Span JSON of a traced
run and the temporary event logs land in <build dir>/perfbench-out.

Exits 2 when the cebis sources are missing, 1 when the build or the run
fails, otherwise with the harness's own exit code.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175


def git_sha(root):
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"perfbench: no cebis sources under {ROOT / 'src'}; nothing to "
              "build or measure", file=sys.stderr)
        sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            sys.exit(1)
    return build_dir / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep", "live", "socket"])
    parser.add_argument("--seed", type=int, default=2009)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--perturb-reference", action="store_true")
    args = parser.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    binary = build(build_dir)

    out_dir = build_dir / "perfbench-out"
    tmp_dir = build_dir / "tmp"
    out_dir.mkdir(parents=True, exist_ok=True)
    tmp_dir.mkdir(parents=True, exist_ok=True)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out_dir), "--git-sha", git_sha(ROOT)]
    if args.small:
        cmd.append("--small")
    if args.perturb_reference:
        cmd.append("--perturb-reference")
    env = dict(os.environ, TMPDIR=str(tmp_dir))
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as e:
        partial = e.stdout or ""
        if isinstance(partial, bytes):
            partial = partial.decode(errors="replace")
        # The partial output must not end in a result line.
        sys.stdout.write("\n".join(l for l in partial.splitlines()
                                   if not l.startswith("{")) + "\n")
        print(f"perfbench: {args.workload} did not finish within "
              f"{RUN_TIMEOUT_S} s", file=sys.stderr)
        sys.exit(1)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
