"""Tests of the benchmark's own parts: oracles, gauge generator, tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import sys
import threading
import types
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import heckelab  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from heckelab.cli import RunConfig, load_source, run  # noqa: E402


@pytest.mark.parametrize("n", [2, 3])
def test_sigma_oracle_matches_central_set(n):
    q, c = Fraction(5, 3), Fraction(2, 7)
    h = heckelab.builtin_standard(n, heckelab.RationalField(q))
    cs = heckelab.central_set(h)
    assign = {(a, b): c if a == b else 0
              for a in range(1, n + 1) for b in range(1, n + 1)}
    assert cs.p == n
    for i in range(1, n + 1):
        assert cs.sigma[i].evaluate(assign) == workloads.sigma_at_scalar(n, q, c, i)
    # a wrong point or scalar must not match
    assert cs.sigma[1].evaluate(assign) != workloads.sigma_at_scalar(n, q, c + 1, 1)


@pytest.mark.parametrize("n", [2, 3])
def test_delta_oracle_matches_report(n):
    q, c = Fraction(3, 2), Fraction(4, 5)
    report = run(RunConfig("charpoly", builtin="std:%d" % n,
                           field="evaluated:%s" % q))
    delta = report.data["delta"]
    got = [workloads.eval_ncpoly_text(t, c) for t in delta]
    assert got == workloads.delta_at_scalar(n, q, c)
    assert got != workloads.delta_at_scalar(n, q + 1, c)


def test_ncpoly_text_parser_signs_and_constants():
    text = "(-3/4)*L[1,1]*L[2,2] - 2*L[1,2]*L[2,1] + L[2,2]*L[2,2] - 5"
    assert workloads.eval_ncpoly_text(text, Fraction(2)) == Fraction(-3, 4) * 4 + 4 - 5
    assert workloads.eval_ncpoly_text("-L[1,1]", Fraction(3)) == -3
    assert workloads.eval_ncpoly_text("0", Fraction(3)) == 0


def test_identity_gauge_reproduces_builtin():
    n = 3
    one = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    items = workloads.gauge_conjugate(workloads.standard_r(n), one, one)
    f = heckelab.SymbolicField()
    builtin = heckelab.builtin_standard(n, f).R
    want = {heckelab.tensor.decode(r, n, 2) + heckelab.tensor.decode(c, n, 2): v
            for (r, c), v in builtin.entries.items()}
    got = {k[0] + k[1]: heckelab.parse_scalar(workloads.format_laurent(v))
           for k, v in items.items()}
    assert got == want


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gauge_file_validates_with_rank_three(tmp_path, seed):
    g, ginv = workloads.gauge_matrix(3, seed)
    assert all(g[i][j] == int(i == j) for i in range(3) for j in range(3)
               if (i + 1, j + 1) not in workloads.GAUGE_PATTERN)
    items = workloads.gauge_conjugate(workloads.standard_r(3), g, ginv)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(workloads.rmatrix_document(3, items)))
    src = load_source(RunConfig("rank", input_path=str(path)))
    assert src.kind == "file" and src.file_q is None
    h = src.build(heckelab.make_field(heckelab.FieldSpec.evaluated(Fraction(3, 2))))
    assert h.detect_rank() == 3
    assert set(items) != set(workloads.standard_r(3))  # not the builtin itself


def test_perturbed_gauge_file_fails_validation(tmp_path):
    g, ginv = workloads.gauge_matrix(3, 0)
    items = workloads.perturbed(
        workloads.gauge_conjugate(workloads.standard_r(3), g, ginv), 0)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(workloads.rmatrix_document(3, items)))
    report = run(RunConfig("validate", input_path=str(path), field="sampled:2"))
    assert {c.name for c in report.checks if c.status == "failed"} & {
        "yang_baxter", "hecke_quadratic"}


def test_self_time_of_overlapping_spans_from_two_threads():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 6.0, 4.0, 8.0, 10.0])
    tr = tracing.Tracer(clock=lambda: next(ticks))
    top = tr.open("cli.run")

    def worker_a():
        a = tr.open("hecke.a")
        tr.close(tr.open("tensor.inner"))  # 2.0 .. 3.0
        tr.close(a)

    def worker_b():
        tr.close(tr.open("hecke.b"))

    for fn in (worker_a, worker_b):  # one after the other: the clock is shared
        t = threading.Thread(target=fn)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
    tr.close(top)

    spans = {s[tracing.NAME]: s for s in tr.spans}
    assert spans["hecke.a"][tracing.PARENT] is top
    assert spans["hecke.b"][tracing.PARENT] is top
    assert spans["tensor.inner"][tracing.PARENT] is spans["hecke.a"]
    selfs = tracing.self_times(tr.spans)
    # children cover [1, 6] and [4, 8]: their union is 7 of the 10 seconds
    assert selfs[id(top)] == pytest.approx(3.0)
    assert selfs[id(spans["hecke.a"])] == pytest.approx(4.0)
    assert selfs[id(spans["hecke.b"])] == pytest.approx(4.0)
    assert tracing.busy(tr.spans, ["hecke.a", "hecke.b"]) == pytest.approx(9.0)
    assert tracing.layer_busy_over_wall(tr.spans) == pytest.approx(0.9)


def _fake_package():
    """A program in which a later version deleted ``invariants.sigma``."""
    pkg = types.ModuleType("fakelab")
    for short in tracing.TRACED_MODULES:
        setattr(pkg, short, types.ModuleType("fakelab." + short))
    exec("def central_set(x):\n    return x + 1\n", pkg.invariants.__dict__)
    exec("def run(x):\n    return central_set(x)\n", pkg.cli.__dict__)
    pkg.invariants.central_set.__module__ = "fakelab.invariants"
    pkg.cli.run.__module__ = "fakelab.cli"
    pkg.cli.central_set = pkg.invariants.central_set  # bound by name, as in cli
    return pkg


def test_missing_wrapped_name_is_reported_absent():
    pkg = _fake_package()
    tr = tracing.Tracer()
    tr.install(pkg)
    assert pkg.cli.run(1) == 2
    absent = tr.absent()
    assert "invariants.sigma" in absent
    assert "invariants.central_set" not in absent and "cli.run" not in absent
    names = [s[tracing.NAME] for s in tr.spans]
    assert names == ["cli.run", "invariants.central_set"]
    metrics = tracing.aggregate(tr, 1.0)
    assert metrics["invariants.sigma.busy_s"] == 0
    assert metrics["trace.absent"] == len(absent)
    tr.uninstall()
    assert not hasattr(pkg.cli.run, "__wrapped__")


def test_counts_repeat_exactly_under_the_point_pool():
    def traced_counts():
        tr = tracing.Tracer()
        tr.install(heckelab, tracing.make_observers(heckelab))
        try:
            heckelab.cli.run(RunConfig("newton", builtin="std:3",
                                       field="modular:2305843009213693951"))
        finally:
            tr.uninstall()
        m = tracing.aggregate(tr, 1.0)
        assert not tr.absent()
        return {k: v for k, v in m.items() if not k.endswith(("_s", "over_wall"))}

    first, second = traced_counts(), traced_counts()
    tr = tracing.Tracer()
    tr.install(heckelab)
    try:
        heckelab.ModInt(2, 7) * 3
    finally:
        tr.uninstall()
    assert tr.counts()["qscalar.modint.ops"] == tr.counts()["qscalar.modint.ops"] == 1
    assert first == second
    assert first["qscalar.modint.ops"] > 0 and first["cli.run.calls"] == 1
    assert first["ncalgebra.ideal_component.d3.rank"] == \
        first["ncalgebra.ideal_component.d3.flat_rank"] == 5 * (9 ** 3 - 165)
    assert not hasattr(heckelab.cli.run, "__wrapped__")
