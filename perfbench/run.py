#!/usr/bin/env python3
"""The repository benchmark: builds the program from source, runs one
workload and prints its metrics as the last line of stdout.

    python3 perfbench/run.py --workload flat42 --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --smoke          # tiny subset of every workload
    python3 perfbench/run.py --make-goldens   # rewrite perfbench/goldens.tsv

Run from the root of a source tree. The definition (workloads, metrics,
bounds) is BENCHMARK.json at the root; every run's metric names and units
are checked against it. One more workload, stacked (the sweep flow on
putontop-stacked apex2 x2 and square x7, where guided generation is most
of the wall), runs the same way but is not gated: its wall time varies
up to 2x with the seed, since the seed sets how much guided work square
x7 does, so it serves per-layer profiling only. Inputs, the daemon
socket and its log go to perfbench/_work/. Refuses to run when
SIMGEN_CHECK or SIMGEN_FAULT is set: audits and injected faults change
the program being measured.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
GOLDENS = os.path.join(HERE, "goldens.tsv")
BUILD = os.path.join(ROOT, "_build", "default")
MAIN = os.path.join(BUILD, "perfbench", "main.exe")
CLI = os.path.join(BUILD, "bin", "simgen_cli.exe")
TIMEOUT_S = 170
UNGATED = ["stacked"]


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    # Keep dune's shared cache and any temporary files inside the tree.
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.join(WORK, "cache")
    env["TMPDIR"] = WORK
    return env


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        die("no source tree at %s (dune-project and lib/ missing)" % ROOT)
    cmd = ["dune", "build", "--root", ROOT, "./perfbench/main.exe",
           "./bin/simgen_cli.exe"]
    r = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=sys.stderr)
    if r.returncode != 0:
        die("build failed")


def run_main(args, timeout=TIMEOUT_S):
    """Run main.exe in its own process group, so a timeout also takes
    down the daemon it started. Returns its stdout lines."""
    cmd = [MAIN, "--work", WORK, "--goldens", GOLDENS, "--cli", CLI] + args
    p = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                         stdout=subprocess.PIPE, text=True,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        die("timed out after %d s" % timeout)
    finally:
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if p.returncode != 0:
        sys.stdout.write(out)
        die("main.exe exited with %d" % p.returncode)
    return out.splitlines()


def validate(line, definition, trace):
    """Check the result line's shape and its metric names and units
    against BENCHMARK.json. Returns an error message or None."""
    try:
        result = json.loads(line)
    except ValueError as e:
        return "last line is not JSON: %s" % e
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys %s" % sorted(result)
    if not isinstance(result["correct"], bool):
        return "correct is not a boolean"
    for k in ("attempted", "failed"):
        if not isinstance(result[k], int) or isinstance(result[k], bool):
            return "%s is not a whole number" % k
    if result["attempted"] < 1:
        return "nothing attempted"
    wanted = definition["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = result["metrics"]
    if list(got) != list(units):
        return "metrics %s, expected %s" % (list(got), list(units))
    for name, m in got.items():
        if set(m) != {"value", "unit"} or m["unit"] != units[name]:
            return "metric %s: %s, expected unit %s" % (name, m, units[name])
        v = m["value"]
        if isinstance(v, bool) or not isinstance(v, (int, float)) \
                or not math.isfinite(v):
            return "metric %s: value %r" % (name, v)
    return None


def run_workload(definition, args, extra):
    lines = run_main(["--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds),
                      "--trace", str(args.trace)] + extra)
    if not lines:
        die("no output")
    err = validate(lines[-1], definition, args.trace == 1)
    if err:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        die("invalid result: " + err)
    return lines


def smoke(definition):
    """Every workload on a tiny subset, both trace modes: the result must
    be well formed, correct, and name exactly the defined metrics."""
    for w in [w["name"] for w in definition["workloads"]] + UNGATED:
        for trace in (0, 1):
            args = argparse.Namespace(workload=w, seed=1, seconds=1,
                                      trace=trace)
            result = json.loads(run_workload(definition, args,
                                             ["--smoke"])[-1])
            if not result["correct"] or result["failed"]:
                die("smoke %s trace %d: incorrect result" % (w, trace))
            print("smoke %s trace %d: ok (%d commands)"
                  % (w, trace, result["attempted"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        definition = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=definition["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--make-goldens", action="store_true")
    args = ap.parse_args()
    for var in ("SIMGEN_CHECK", "SIMGEN_FAULT"):
        if os.environ.get(var):
            die("%s is set; audits and injected faults change the program "
                "being measured" % var)
    os.makedirs(WORK, exist_ok=True)
    build()
    if args.make_goldens:
        print("\n".join(run_main(["--make-goldens"], timeout=None)))
    elif args.smoke:
        smoke(definition)
    else:
        names = [w["name"] for w in definition["workloads"]] + UNGATED
        if args.workload not in names:
            die("--workload must be one of %s" % ", ".join(names))
        print("\n".join(run_workload(definition, args, [])))


if __name__ == "__main__":
    main()
