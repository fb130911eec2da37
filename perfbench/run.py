#!/usr/bin/env python3
"""Build and run the real-time benchmark of the SFS reproduction.

Run from the root of the repository:

    python3 perfbench/run.py --workload read-seq --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selfcheck          # same seed, same figures

The benchmark is the OCaml program in this directory, a dune project of
its own built against the repository's libraries.  Each run builds it
(a no-op once built), runs it, and passes its output through: the last
line of standard output is one JSON object with the run's metrics.  A
build failure exits non-zero without printing a result.  LAYERS.md
describes the workloads and every metric.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
WORKLOADS = ["read-seq", "meta-mix", "crowd-rw", "crowd-ro"]
RUN_LIMIT_S = 170


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--display", "quiet",
           "./perfbench/perfbench.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return False
    return done.returncode == 0 and os.path.isfile(EXE)


def run_exe(args, timeout=RUN_LIMIT_S):
    """Run the benchmark program; return (exit code, stdout)."""
    proc = subprocess.Popen([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 1, ""
    return proc.returncode, out


def selfcheck(seed):
    """Two runs with one seed must agree on every deterministic figure:
    allocation per op, per-layer counts and the engines' ledgers."""
    ok = True
    for w in WORKLOADS:
        outs = []
        for _ in range(2):
            code, out = run_exe(["--workload", w, "--seed", seed, "--digest"])
            if code != 0:
                print(f"selfcheck {w}: run failed", file=sys.stderr)
                return False
            outs.append([l for l in out.splitlines() if l.startswith("digest ")])
        same = outs[0] == outs[1] and outs[0]
        ok = ok and bool(same)
        print(f"selfcheck {w}: {'identical' if same else 'DIFFERENT'} "
              f"({len(outs[0])} figures)")
        if not same:
            for a, b in zip(outs[0], outs[1]):
                if a != b:
                    print(f"  {a}\n  {b}")
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", default="1")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selfcheck", action="store_true")
    a = p.parse_args()
    if not build():
        return 1
    if a.selfcheck:
        return 0 if selfcheck(a.seed) else 1
    if a.workload is None:
        p.error("--workload is required")
    code, out = run_exe(["--workload", a.workload, "--seed", a.seed,
                         "--seconds", repr(a.seconds), "--trace",
                         str(a.trace)])
    if code != 0:
        print(f"perfbench: {a.workload} exited with {code}", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
