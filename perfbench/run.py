#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload feed --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds perfbench/bench.exe in the release
profile, runs one workload, checks that the metrics it reports are
exactly the ones BENCHMARK.json declares for the mode (end-to-end with
--trace 0, per-layer with --trace 1), and prints its result line as the
last line of standard output. Exits non-zero without a result line when
the sources are missing, the build fails or the run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout kill the whole group
    (the benchmark forks one process per repetition) and wait for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s timed out after %d s" % (os.path.basename(cmd[0]), timeout))
    return proc.returncode, out


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("the repository sources (dune-project, lib/) are missing")

    # The shared dune cache lives outside the checkout: keep it off.
    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = run_group(
        ["dune", "build", "--root", ROOT, "--profile", "release",
         "./perfbench/bench.exe"],
        timeout=850, cwd=ROOT, env=env, stdout=sys.stderr)
    if code != 0:
        fail("build failed")

    # The window plus room for the last repetition, and for visiting
    # every input once (per kind, when traced) however short the window.
    code, out = run_group(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        timeout=args.seconds * 2 + 120, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        fail("bench.exe exited with code %d" % code)
    result = json.loads(lines[-1])
    declared = spec["per_layer" if args.trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        fail("reported metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "unit mismatch %s" % (
                 sorted(set(want) - set(got)), sorted(set(got) - set(want)),
                 sorted(k for k in want if k in got and want[k] != got[k])))
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
