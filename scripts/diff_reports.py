#!/usr/bin/env python3
"""Compare two directories of JSON reports, ignoring every time_ms.

Prints one line for each *.json file whose report differs and for each
file present on one side only, and exits 1 if there is any such file
(0 when the directories agree, 2 on a usage error).

  python3 scripts/run_full_verification.py --json-dir before/
  python3 scripts/run_full_verification.py --json-dir after/
  python3 scripts/diff_reports.py before/ after/
"""

import argparse
import json
import pathlib
import sys


def without_timings(x):
    """x with every "time_ms" key dropped, at any depth."""
    if isinstance(x, dict):
        return {k: without_timings(v) for k, v in x.items() if k != "time_ms"}
    if isinstance(x, list):
        return [without_timings(v) for v in x]
    return x


def differences(a, b):
    """One line per file that differs or is present on one side only."""
    names_a = {p.name for p in a.glob("*.json")}
    names_b = {p.name for p in b.glob("*.json")}
    out = []
    for name in sorted(names_a | names_b):
        if name not in names_b:
            out.append("only in %s: %s" % (a, name))
        elif name not in names_a:
            out.append("only in %s: %s" % (b, name))
        else:
            try:
                same = (without_timings(json.loads((a / name).read_text()))
                        == without_timings(json.loads((b / name).read_text())))
            except ValueError as e:
                out.append("unreadable: %s (%s)" % (name, e))
                continue
            if not same:
                out.append("differs: %s" % name)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=pathlib.Path, help="first report directory")
    ap.add_argument("b", type=pathlib.Path, help="second report directory")
    ns = ap.parse_args(argv)
    for d in (ns.a, ns.b):
        if not d.is_dir():
            ap.error("not a directory: %s" % d)
    lines = differences(ns.a, ns.b)
    for line in lines:
        print(line)
    if lines:
        print("%d differing file(s)" % len(lines))
    else:
        print("%d report(s) agree" % len(list(ns.a.glob("*.json"))))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
