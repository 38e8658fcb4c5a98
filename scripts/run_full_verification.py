#!/usr/bin/env python3
"""Sweep every verification command over the builtin catalogue.

Defaults: std:2 through std:4 plus the classical flips perm:2 and
perm:3, each field strategy auto-selected by size.  A source other than
std:N or perm:N is read as a JSON R-matrix file.  Prints one line per
(source, command) pair and exits nonzero if anything genuinely failed
(skips caused by resource caps do not fail the sweep).

  python3 scripts/run_full_verification.py
  python3 scripts/run_full_verification.py --sources std:2 perm:2 --json-dir out/
  python3 scripts/run_full_verification.py --sources tests/gauge-s7.json \
      --commands newton --json-dir out/
"""

import argparse
import pathlib
import re
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from heckelab.cli import COMMANDS, ConfigError, RunConfig, run  # noqa: E402

DEFAULT_SOURCES = ("std:2", "std:3", "std:4", "perm:2", "perm:3")
BUILTIN = re.compile(r"(std|perm):[0-9]+")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sources", nargs="+", default=list(DEFAULT_SOURCES),
                    metavar="std:N|perm:N|FILE")
    ap.add_argument("--commands", nargs="+", default=list(COMMANDS),
                    choices=COMMANDS, metavar="command")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--json-dir", default=None,
                    help="also dump one JSON report per run")
    ns = ap.parse_args(argv)

    json_dir = None
    if ns.json_dir:
        json_dir = pathlib.Path(ns.json_dir)
        json_dir.mkdir(parents=True, exist_ok=True)

    failures = 0
    for source in ns.sources:
        # std:3 is a builtin, reported as std-3; anything else is a file,
        # reported by its file name without suffix
        if BUILTIN.fullmatch(source):
            given, stem = {"builtin": source}, source.replace(":", "-")
        else:
            given, stem = {"input_path": source}, pathlib.Path(source).stem
        for command in ns.commands:
            cfg = RunConfig(command, seed=ns.seed, **given)
            t0 = time.perf_counter()
            try:
                report = run(cfg)
            except ConfigError as e:
                print("%-8s %-16s CONFIG ERROR: %s" % (source, command, e))
                failures += 1
                continue
            elapsed = time.perf_counter() - t0
            counts = {}
            for c in report.checks:
                counts[c.status] = counts.get(c.status, 0) + 1
            summary = ", ".join("%d %s" % (counts[k], k) for k in sorted(counts))
            flag = "ok" if report.passed else "FAIL"
            print("%-8s %-16s %-4s %6.2fs  %s"
                  % (source, command, flag, elapsed, summary))
            if not report.passed:
                failures += 1
            if json_dir is not None:
                name = "%s_%s.json" % (stem, command)
                (json_dir / name).write_text(report.to_json())
    print("sweep: %s" % ("all clear" if not failures else
                         "%d failing run(s)" % failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
