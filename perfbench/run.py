#!/usr/bin/env python3
"""Build the benchmark from source and run one workload in its own process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout of the repository. The benchmark package
(perfbench/Cargo.toml) is built in release mode into $CARGO_TARGET_DIR
(default: .bench_build at the checkout root). A line of host facts is
printed first; the last line of standard output is the benchmark's result
object. Without the repository's crates next to perfbench/ the build is
impossible, and the script exits with status 1 before printing a result.

--selftest runs the benchmark's own tests (cargo test) and then every
workload of BENCHMARK.json at small scale, with tracing off and on,
checking that each run is correct and emits exactly the metrics
BENCHMARK.json names, with their units.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def cargo_env():
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR", ".bench_build")
    env["CARGO_TARGET_DIR"] = os.path.join(ROOT, target)
    return env


def build(env):
    """Builds the benchmark binary; returns its path."""
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail("the repository's crates/ directory is missing; nothing to build")
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", MANIFEST],
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if done.returncode != 0:
        fail(f"cargo build failed with status {done.returncode}")
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")


def command_output(args):
    try:
        done = subprocess.run(
            args, cwd=ROOT, capture_output=True, text=True, check=False
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def host_facts():
    return {
        "host": {
            "nproc": os.cpu_count(),
            "rustc": command_output(["rustc", "--version"]),
            "commit": command_output(["git", "rev-parse", "HEAD"]),
        }
    }


def run(binary, args, env):
    """Runs the benchmark binary; returns (status, stdout lines)."""
    try:
        done = subprocess.run(
            [binary, *args],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
            check=False,
        )
    except subprocess.TimeoutExpired:
        fail(f"the benchmark did not finish within {RUN_TIMEOUT_S} s")
    return done.returncode, done.stdout.splitlines()


def selftest(binary, env):
    tests = subprocess.run(
        ["cargo", "test", "--release", "--offline", "--manifest-path", MANIFEST],
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if tests.returncode != 0:
        fail("cargo test failed")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    for workload in spec["workloads"]:
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            name = workload["name"]
            args = ["--workload", name, "--seed", "1", "--seconds", "1"]
            status, lines = run(binary, [*args, "--trace", trace, "--scale", "small"], env)
            if status != 0 or not lines:
                fail(f"{name} trace {trace}: exit status {status}")
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                fail(f"{name} trace {trace}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail(f"{name} trace {trace}: incorrect run {result}")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                fail(f"{name} trace {trace}: metrics {got} != BENCHMARK.json {want}")
            print(f"selftest: {name} trace {trace}: {len(got)} metrics OK", file=sys.stderr)
    print("selftest OK")


def main():
    args = sys.argv[1:]
    env = cargo_env()
    binary = build(env)
    if args == ["--selftest"]:
        selftest(binary, env)
        return 0
    print(json.dumps(host_facts()), flush=True)
    status, lines = run(binary, args, env)
    for line in lines:
        print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
