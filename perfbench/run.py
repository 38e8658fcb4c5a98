#!/usr/bin/env python3
"""The heckelab benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload sweep|n4-point|gauge-file \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
``src/``). Every repetition runs in a fresh interpreter
(``perfbench/child.py``), because a command-line user pays every cache
on every run:

* a warm-up interpreter, discarded, then ``SETUP_SAMPLES`` interpreters,
  half before the passes and half after, that only import heckelab and
  generate and load the workload's sources: their median, with the
  passes' own set-up times, is ``setup_s``;
* passes with tracing off and the point pool at one thread, one after
  another: the workload's ``MIN_PASSES`` (default one), then more as
  long as the next one is predicted to end within ``--seconds``;
  ``pass_s`` and ``peak_rss_mb`` are medians over them;
* with ``--trace 1``, one untraced pass and then one traced pass, both
  with the point pool at the user default, whose per-layer metrics are
  reported instead of the end-to-end ones.

Every operation is judged (see ``workloads.py``) and compared, timings
aside, with the same operation in the previous pass; the exit code is 1
if any failed. An interpreter still running ``RUN_DEADLINE_S`` after
the start is killed and its operations fail, so a run always ends
within three minutes. The last line of stdout is the JSON result; the
lines before it name every metric with its unit, the check counts and
the environment. Files go under ``.perfbench_out/`` in the checkout.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import BUILDERS, MIN_PASSES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 20
RUN_DEADLINE_S = 170
END_TO_END = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
THREADS_ENV = "HECKE_LAB_THREADS"
# The timed passes run the point pool at one thread. At the user default
# (two threads on a two-core host) a sweep pass took 21-39 s at random
# and spread pass_s by up to a third between runs; the traced passes keep
# the default, so that cli.layer_busy_over_wall still shows the pool.
TIMED_THREADS = "1"


def commit():
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def child(workload, seed, mode, tag, deadline, threads=None):
    """Run one fresh interpreter, with ``HECKE_LAB_THREADS`` set to
    ``threads`` or unset; its result dict, or None if it failed or was
    still running at ``deadline`` (a ``time.perf_counter`` value)."""
    out = OUT / ("child-%s-s%d-%s.json" % (workload, seed, tag))
    out.unlink(missing_ok=True)
    env = {k: v for k, v in os.environ.items() if k != THREADS_ENV}
    if threads is not None:
        env[THREADS_ENV] = threads
    cmd = [sys.executable, str(HERE / "child.py"), "--root", str(ROOT),
           "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--out", str(out)]
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT,
                              timeout=max(1.0, deadline - time.perf_counter()),
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
    except subprocess.TimeoutExpired:
        print("child %s %s timed out" % (mode, tag), file=sys.stderr)
        return None
    if done.returncode != 0 or not out.is_file():
        print("child %s %s exited %d:\n%s" % (mode, tag, done.returncode,
                                              done.stdout[-4000:]),
              file=sys.stderr)
        return None
    return json.loads(out.read_text())


def judge_passes(passes):
    """(attempted, failed, problems) over every operation of every pass;
    a pass whose interpreter died fails the operations of the pass
    before it, or one operation if there was none."""
    attempted = failed = 0
    problems = []
    previous = None
    for number, result in enumerate(passes):
        if result is None:
            lost = len(previous["ops"]) if previous else 1
            attempted += lost
            failed += lost
            problems.append("pass %d: interpreter failed" % number)
            continue
        before = {op["name"]: op["digest"] for op in (previous or {}).get("ops", ())}
        for op in result["ops"]:
            attempted += 1
            why = op["problem"]
            if why is None and op["name"] in before and before[op["name"]] != op["digest"]:
                why = "output differs from the previous pass"
            if why is not None:
                failed += 1
                problems.append("pass %d, %s: %s" % (number, op["name"], why))
        previous = result
    return attempted, failed, problems


def check_counts(result):
    """(skipped, total) checks reported by the positive operations of
    one pass; the negative controls are left out."""
    skipped = total = 0
    for op in result["ops"]:
        if op["positive"]:
            total += len(op["checks"])
            skipped += sum(1 for _, status in op["checks"] if status == "skipped")
    return skipped, total


def measure(workload, seed, seconds, trace):
    """Set-up samples are split around the passes, so that a short slow
    spell of the machine cannot move all of them."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    child(workload, seed, "setup", "warmup", deadline)
    setups = [child(workload, seed, "setup", "setup%d" % i, deadline)
              for i in range(SETUP_SAMPLES // 2)]
    passes = []
    if trace:
        passes.append(child(workload, seed, "pass", "pass0", deadline))
        passes.append(child(workload, seed, "trace", "trace", deadline))
    else:
        start = time.perf_counter()
        while True:
            t = time.perf_counter()
            passes.append(child(workload, seed, "pass", "pass%d" % len(passes),
                                deadline, TIMED_THREADS))
            last = time.perf_counter() - t
            if passes[-1] is None or (
                    len(passes) >= MIN_PASSES.get(workload, 1)
                    and time.perf_counter() - start + last > seconds):
                break
    setups += [child(workload, seed, "setup", "setup%d" % i, deadline)
               for i in range(SETUP_SAMPLES // 2, SETUP_SAMPLES)]
    return setups, passes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    if not (ROOT / "src" / "heckelab" / "__init__.py").is_file():
        print("perfbench: no heckelab sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    setups, passes = measure(ns.workload, ns.seed, ns.seconds, ns.trace)
    ok_passes = [p for p in passes if p is not None]
    attempted, failed, problems = judge_passes(passes)
    lost_setups = sum(1 for s in setups if s is None)
    attempted += len(setups)
    failed += lost_setups
    if lost_setups:
        problems.append("%d set-up interpreters failed" % lost_setups)
    setup_values = [s["setup_s"] for s in setups + ok_passes if s is not None]

    env = {"workload": ns.workload, "seed": ns.seed, "trace": ns.trace,
           "passes": len(passes), "cpu_count": os.cpu_count(),
           THREADS_ENV: ("unset (user default) in the traced passes" if ns.trace
                         else "%s in the timed passes" % TIMED_THREADS),
           "python": platform.python_version(), "commit": commit()}
    if ok_passes:
        env["facts"] = ok_passes[0]["facts"]
    print("env %s" % json.dumps(env, sort_keys=True))
    for line in problems:
        print("FAILED %s" % line)

    metrics = {}
    if not ns.trace and ok_passes and setup_values:
        values = {"pass_s": statistics.median(p["pass_s"] for p in ok_passes),
                  "setup_s": statistics.median(setup_values),
                  "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in ok_passes)}
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    elif ns.trace and len(ok_passes) == 2 and "layers" in ok_passes[1]:
        untraced, traced = ok_passes
        layers = dict(traced["layers"], **traced["rates"])
        layers["trace.overhead"] = traced["wall_s"] / untraced["wall_s"]
        skipped, total = check_counts(traced)
        layers["checks.skipped_share"] = skipped / total if total else 0.0
        for name in traced["absent"]:
            print("absent %s" % name)
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(layers.items())}
    if ok_passes:
        skipped, total = check_counts(ok_passes[0])
        print("skipped_share = %d/%d = %.4f (1)" % (skipped, total,
                                                  skipped / total if total else 0.0))
    print("failed_share = %d/%d = %.4f (1)" % (failed, attempted,
                                              failed / attempted if attempted else 1.0))
    for name, m in metrics.items():
        print("%s = %r %s" % (name, m["value"], m["unit"]))

    record = {"env": env, "problems": problems, "metrics": metrics,
              "setups": setup_values, "passes": passes}
    tag = "%s-s%d-t%d" % (ns.workload, ns.seed, ns.trace)
    (OUT / ("result-%s.json" % tag)).write_text(json.dumps(record, indent=1))
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def unit_of(name):
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "share", "over_wall", "overhead")):
        return "1"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
