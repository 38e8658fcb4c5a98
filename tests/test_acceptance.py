"""The acceptance gate: one test per criterion, one verdict line each.

Every mathematical comparison here is exact; there are no tolerances.
A defect either reduces to the zero polynomial in the stated field or
the criterion fails.  Wall-clock budgets are asserted where the
criterion carries one.
"""

import json
import time
from fractions import Fraction

import pytest

from heckelab.cli import RunConfig, run
from heckelab.hecke import (
    HeckeError,
    builtin_permutation,
    builtin_standard,
    identity_suite,
    validate,
)
from heckelab.invariants import (
    central_set,
    classical_crosscheck,
    ideal_components,
    verify_cayley_hamilton,
    verify_centrality,
    verify_char_poly,
    verify_newton,
)
from heckelab.ncalgebra import EchelonBasis, ideal_component, re_relations
from heckelab.qscalar import (
    DEFAULT_PRIME,
    ModularField,
    RationalField,
    SymbolicField,
    sample_modular_qs,
    sample_rational_qs,
)
from heckelab.tensor import TensorOperator


def verdict(num, label, ok, detail=""):
    print("ACCEPTANCE %2d  %-18s %s%s"
          % (num, label, "PASS" if ok else "FAIL",
             "  [" + detail + "]" if detail else ""))
    assert ok, "criterion %d (%s) failed %s" % (num, label, detail)


def all_ok(checks):
    return all(c.ok for c in checks)


def test_criterion_01_axioms():
    t0 = time.perf_counter()
    builtin_standard(2, SymbolicField())
    builtin_standard(3, SymbolicField())
    small = time.perf_counter() - t0
    t0 = time.perf_counter()
    for q0 in sample_modular_qs(5, DEFAULT_PRIME, seed=0):
        builtin_standard(4, ModularField(DEFAULT_PRIME, q0))
    big = time.perf_counter() - t0
    detail = "N<=3 %.1fs, N=4 at 5 modular q %.1fs" % (small, big)
    verdict(1, "axioms", small < 10 and big < 120, detail)


def test_criterion_02_rank():
    h2 = builtin_standard(2, SymbolicField())
    ok = h2.detect_rank() == 2
    t0 = time.perf_counter()
    h3 = builtin_standard(3, SymbolicField())
    ok = ok and h3.detect_rank() == 3
    elapsed = time.perf_counter() - t0
    for h, p in ((h2, 2), (h3, 3)):
        one = h.field.one
        ok = ok and h.antisymmetrizer(p).trace_full() == one
        ok = ok and h.antisymmetrizer(p + 1).is_zero()
    verdict(2, "rank", ok and elapsed < 60, "N=3 %.1fs" % elapsed)


def test_criterion_03_identity_suite():
    bad = []
    for n in (2, 3):
        h = builtin_standard(n, SymbolicField())
        bad += ["N=%d:%s" % (n, c.name)
                for c in identity_suite(h) if not c.ok]
    verdict(3, "identity suite", not bad, ", ".join(bad))


def test_criterion_04_newton():
    t0 = time.perf_counter()
    h = builtin_standard(2, SymbolicField())
    ok = all_ok(verify_newton(h, central_set(h), ideal_components(h, 2)))
    sym = time.perf_counter() - t0
    t0 = time.perf_counter()
    for q0 in sample_rational_qs(5, seed=0):
        h = builtin_standard(3, RationalField(q0))
        ok = ok and all_ok(verify_newton(h, central_set(h),
                                         ideal_components(h, 3)))
    samp = time.perf_counter() - t0
    detail = "N=2 symbolic %.1fs, N=3 at 5 rational q %.1fs" % (sym, samp)
    verdict(4, "newton", ok and sym < 30 and samp < 600, detail)


def test_criterion_05_cayley_hamilton():
    t0 = time.perf_counter()
    h = builtin_standard(2, SymbolicField())
    checks = verify_cayley_hamilton(h, central_set(h), ideal_components(h, 2))
    ok = all_ok(checks) and len(checks) == 4
    sym = time.perf_counter() - t0
    t0 = time.perf_counter()
    for q0 in sample_rational_qs(5, seed=0):
        h = builtin_standard(3, RationalField(q0))
        checks = verify_cayley_hamilton(h, central_set(h),
                                        ideal_components(h, 3))
        ok = ok and all_ok(checks) and len(checks) == 9
    samp = time.perf_counter() - t0
    detail = "N=2 symbolic %.1fs, N=3 at 5 rational q %.1fs" % (sym, samp)
    verdict(5, "cayley-hamilton", ok and sym < 30 and samp < 600, detail)


def test_criterion_06_char_poly():
    h = builtin_standard(2, SymbolicField())
    checks = verify_char_poly(h, ideal_components(h, 2))
    names = {c.name for c in checks}
    ok = all_ok(checks) and "char_column_eigen_relation" in names
    verdict(6, "char poly", ok)


def test_criterion_07_centrality():
    h = builtin_standard(2, SymbolicField())
    checks = verify_centrality(h, central_set(h), ideal_components(h, 3),
                               top=2)
    verdict(7, "centrality", all_ok(checks) and len(checks) == 2)


def test_criterion_08_classical_limit():
    bad = []
    for n in (2, 3):
        h = builtin_permutation(n, RationalField(1))
        bad += ["N=%d:%s" % (n, c.name)
                for c in classical_crosscheck(h, seed=n) if not c.ok]
        sets = central_set(h)
        comps = ideal_components(h, n)
        for c in verify_newton(h, sets, comps) + \
                verify_cayley_hamilton(h, sets, comps):
            if not c.ok:
                bad.append("N=%d:%s" % (n, c.name))
    verdict(8, "classical limit", not bad, ", ".join(bad))


def test_criterion_09_negative_controls():
    f = SymbolicField()
    h = builtin_standard(2, f)

    # perturbing one R entry must be caught at validation
    entries = dict(h.R.entries)
    entries[(0, 3)] = entries.get((0, 3), f.zero) + f.one
    perturbed_caught = False
    try:
        validate(TensorOperator(2, 2, entries), f)
    except HeckeError:
        perturbed_caught = True

    # deleting one independent defining relation must break at least one
    # membership among the newton / cayley-hamilton / char-poly checks
    basis = EchelonBasis()
    independent = [r for r in re_relations(h) if basis.insert(r)]
    crippled = {d: ideal_component(independent[1:], d) for d in (2, 3)}
    sets = central_set(h)
    checks = (verify_newton(h, sets, crippled)
              + verify_cayley_hamilton(h, sets, crippled)
              + verify_char_poly(h, crippled, sets))
    deletion_caught = any(not c.ok for c in checks)

    detail = "perturbation %s, deletion %s" % (
        "caught" if perturbed_caught else "missed",
        "caught" if deletion_caught else "missed")
    verdict(9, "negative controls", perturbed_caught and deletion_caught,
            detail)


def test_criterion_10_determinism():
    def report_dict(seed):
        doc = run(RunConfig("newton", builtin="std:3", seed=seed)).as_dict()
        for c in doc["checks"]:
            c["time_ms"] = 0
        return doc

    same = json.dumps(report_dict(11)) == json.dumps(report_dict(11))
    fresh = report_dict(12)["field"]["points"] != report_dict(11)["field"]["points"]
    verdict(10, "determinism", same and fresh)
