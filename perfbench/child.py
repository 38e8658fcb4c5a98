"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/child.py --root ROOT --workload NAME --seed N \
        --mode setup|pass|trace --out RESULT.json

The set-up clock starts before anything of heckelab or of the workload
generator is imported, and stops before the first operation. ``setup``
mode stops there. ``pass`` runs every operation once with tracing off;
``trace`` measures the scalar rates, then runs the pass with the tracer
installed. The result is written as JSON to ``--out``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def scalar_rates(seed, repeats=5):
    """Standalone multiplications per second on operands like the
    workloads' own: 61-bit residues, and ratios of q-numbers."""
    from random import Random

    from heckelab.qscalar import DEFAULT_PRIME, ModInt, q_number

    rng = Random("rates-%d" % seed)
    mods = [(ModInt(rng.randrange(1, DEFAULT_PRIME), DEFAULT_PRIME),
             ModInt(rng.randrange(1, DEFAULT_PRIME), DEFAULT_PRIME))
            for _ in range(20000)]
    ratios = []
    for _ in range(100):
        a, b, c, d = (rng.randrange(2, 7) for _ in range(4))
        ratios.append((q_number(a) / q_number(b), q_number(c) / q_number(d)))

    def rate(pairs):
        out = []
        for _ in range(repeats):
            t = time.perf_counter()
            for x, y in pairs:
                x * y
            out.append(len(pairs) / (time.perf_counter() - t))
        return sorted(out)[len(out) // 2]

    return {"qscalar.modint.mul_per_s": rate(mods),
            "qscalar.qscalar.mul_per_s": rate(ratios)}


def run_ops(workload):
    """Run every operation; the clock covers only the program call."""
    seen, records, total = {}, [], 0.0
    for op in workload.ops:
        rec = {"name": op.name, "positive": op.positive, "problem": None,
               "digest": None, "checks": [], "seconds": 0.0}
        try:
            t = time.perf_counter()
            out = op.call()
            rec["seconds"] = time.perf_counter() - t
            seen[op.name] = out
            problem, text, checks = op.judge(out, seen)
            rec.update(problem=problem, checks=checks,
                       digest=hashlib.sha256(text.encode()).hexdigest()[:16])
        except Exception:
            rec["problem"] = "raised: " + traceback.format_exc(limit=3)
        total += rec["seconds"]
        records.append(rec)
    return records, total


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass", "trace"), required=True)
    ap.add_argument("--out", required=True)
    ns = ap.parse_args(argv)
    root = Path(ns.root)
    sys.path.insert(0, str(root / "src"))

    import heckelab
    import workloads

    work = workloads.build(ns.workload, ns.seed, root / ".perfbench_out" / "inputs")
    result = {"setup_s": time.perf_counter() - T0, "facts": work.facts}
    if ns.mode != "setup":
        tracer = None
        if ns.mode == "trace":
            import tracer as tracing

            result["rates"] = scalar_rates(ns.seed)
            tracer = tracing.Tracer()
            tracer.install(heckelab, tracing.make_observers(heckelab))
        t = time.perf_counter()
        records, program_s = run_ops(work)
        wall = time.perf_counter() - t
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracing.aggregate(tracer, wall)
            result["absent"] = tracer.absent()
            spans = root / ".perfbench_out" / ("spans-%s-s%d.tsv" % (ns.workload, ns.seed))
            tracing.write_spans(tracer, spans)
        result.update(ops=records, pass_s=program_s, wall_s=wall,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    Path(ns.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
