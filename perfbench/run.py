#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <repro-quick|build-grid|rank-corpus> \
        --seed N --seconds S --trace <0|1>

Run it from the root of the repository. It builds the `perfbench`
package (release, offline) into `$CARGO_TARGET_DIR`, or `.bench_build/`
when that is unset, then runs one workload and prints the benchmark's
JSON result line as the last line of stdout. Build output goes to
stderr. Working files live under `.bench_work/` and are removed.

The workloads, their metrics and their checks are documented in
`perfbench/src/lib.rs`; `perfbench describe` lists every metric.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
WORKLOADS = ("repro-quick", "build-grid", "rank-corpus")
# Variables that would change what the program does or where it writes.
SCRUBBED = ("KHAOS_STORE", "KHAOS_TRACE", "KHAOS_METRICS", "KHAOS_SHARD",
            "KHAOS_COORD_ABORT_ON", "KHAOS_LEASE_MS", "KHAOS_AUDIT",
            "KHAOS_THREADS")
RUN_TIMEOUT_S = 170


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()

    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED}
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    # One process, one worker thread: on a few shared cores a second
    # worker measures the scheduler and the other tenants, not the code.
    env["KHAOS_THREADS"] = "1"

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", MANIFEST],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    shutil.rmtree(os.path.join(ROOT, ".bench_work"), ignore_errors=True)
    cmd = [os.path.join(target, "release", "perfbench"), "run",
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    # One CPU for the run and its children: the work does not move
    # between cores of different speed, and the host-speed sampler
    # measures the core the work runs on. The last allowed CPU, since
    # device interrupts land on the first.
    cpu = max(os.sched_getaffinity(0))
    # Its own process group, so a timeout stops the repro-quick child too.
    run = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           start_new_session=True,
                           preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    try:
        stdout, _ = run.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.communicate()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(ROOT, ".bench_work"), ignore_errors=True)
    lines = stdout.decode().strip().splitlines()
    if run.returncode != 0 or not lines:
        print(f"perfbench: run failed with code {run.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
