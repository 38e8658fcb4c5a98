"""End-to-end checks of the command-line frontend: exit codes, report
schema, determinism, file loading, and the skip/fail paths."""

import json
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from heckelab.cli import ConfigError, RunConfig, Source, load_source, main, resolve_field, run
from heckelab.qscalar import parse_scalar


def run_json(tmp_path, args, name="report.json"):
    out = tmp_path / name
    code = main(args + ["--json", "--output", str(out)])
    return code, json.loads(out.read_text())


def strip_timing(doc):
    doc = json.loads(json.dumps(doc))
    for c in doc["checks"]:
        c["time_ms"] = 0
    return doc


GOOD_FILE = {
    "dim": 2,
    "q": "symbolic",
    "entries": [
        {"in": [1, 1], "out": [1, 1], "value": "q"},
        {"in": [2, 2], "out": [2, 2], "value": "q"},
        {"in": [1, 2], "out": [2, 1], "value": "1"},
        {"in": [2, 1], "out": [1, 2], "value": "1"},
        {"in": [1, 2], "out": [1, 2], "value": "q - q^-1"},
    ],
}


def write_file(tmp_path, doc, name="r.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# -- exit codes and statuses -------------------------------------------------

def test_validate_builtin_std2(tmp_path):
    code, doc = run_json(tmp_path, ["validate", "--builtin", "std:2"])
    assert code == 0
    assert doc["schema"] == 1
    assert doc["status"] == "pass"
    assert doc["config"]["seed"] == 0
    names = [c["name"] for c in doc["checks"]]
    assert names == sorted(names)
    assert names == ["closedness", "hecke_quadratic", "yang_baxter"]
    assert all(c["status"] == "proved" for c in doc["checks"])


def test_validate_perm_defaults_to_classical(tmp_path):
    code, doc = run_json(tmp_path, ["validate", "--builtin", "perm:3"])
    assert code == 0
    assert doc["config"]["field"] == "evaluated:1"
    assert doc["field"]["points"] == ["1"]


def test_every_command_passes_on_std2(tmp_path):
    for cmd in ("validate", "rank", "structure", "newton", "cayley-hamilton",
                "charpoly"):
        code, doc = run_json(tmp_path, [cmd, "--builtin", "std:2"], cmd + ".json")
        assert code == 0, cmd
        assert doc["status"] == "pass"
        assert all(c["status"] == "proved" for c in doc["checks"]), cmd


def test_rank_bound_diagnostic(tmp_path):
    code, doc = run_json(tmp_path,
                         ["rank", "--builtin", "std:3", "--rank-bound", "2"])
    assert code == 1
    rec = {c["name"]: c for c in doc["checks"]}["rank_detected"]
    assert rec["status"] == "failed"
    assert "2" in rec["witness"]


def test_vanishing_q_number_fails_rank_detection(tmp_path):
    # gl(1|1): std:2 with -1/q on the (2,2) diagonal has no vanishing
    # antisymmetrizer; at q = 7 in GF(73) the 12th q-number is zero,
    # which fails that point's rank check and lets the other points run
    doc = json.loads(json.dumps(GOOD_FILE))
    doc["entries"][1]["value"] = "-q^-1"
    path = write_file(tmp_path, doc)
    code, rep = run_json(tmp_path, ["rank", "--input", path, "--field",
                                    "modular:73", "--rank-bound", "12"])
    assert code == 1
    assert rep["field"]["points"][0] == "7"
    [rec] = rep["checks"]
    assert rec["name"] == "rank_detected" and rec["status"] == "failed"
    assert rec["witness"] == ("at q = 7: q-number 12 vanishes in GF(73) "
                              "at q = 7")


def test_sampled_default_for_dim3(tmp_path):
    code, doc = run_json(tmp_path, ["newton", "--builtin", "std:3"])
    assert code == 0
    assert doc["config"]["field"] == "sampled:5"
    assert len(doc["field"]["points"]) == 5
    assert all(c["status"] == "verified-at-5-points" for c in doc["checks"])
    assert [c["name"] for c in doc["checks"]] == [
        "newton_defect_1", "newton_defect_2", "newton_defect_3"]


def test_modular_default_for_dim4_newton_skips(tmp_path):
    # the degree-4 slice is over the column cap, so membership is skipped
    # and that must not count as a failure
    code, doc = run_json(tmp_path, ["newton", "--builtin", "std:4"])
    assert code == 0
    assert doc["config"]["field"].startswith("modular:")
    assert doc["field"]["prime"] > 2
    assert all(c["status"] == "skipped" for c in doc["checks"])
    assert "cap" in doc["checks"][0]["witness"]


def test_explicit_modular_field(tmp_path):
    code, doc = run_json(tmp_path,
                         ["validate", "--builtin", "std:2",
                          "--field", "modular:1000003"])
    assert code == 0
    assert doc["field"]["prime"] == 1000003
    assert all(c["status"] == "verified-at-5-points" for c in doc["checks"])


# -- structure and charpoly payloads ----------------------------------------

def test_structure_data_std2(tmp_path):
    code, doc = run_json(tmp_path, ["structure", "--builtin", "std:2"])
    assert code == 0
    data = doc["data"]
    assert data["rank"] == 2
    assert data["trace_c"] == "q^-1 + q^-3"
    assert data["u"] == {"2,1": "1", "1,2": "-q^-1"}
    assert data["c"] == {"1|1": "q^-3", "2|2": "q^-1"}
    assert data["b"] == {"1|1": "q^-1", "2|2": "q^-3"}
    # every emitted scalar is re-parseable
    for block in ("u", "v", "c", "b"):
        for text in data[block].values():
            parse_scalar(text)
    parse_scalar(data["trace_c"])
    parse_scalar(data["trace_b"])


def test_charpoly_classical_data(tmp_path):
    code, doc = run_json(tmp_path, ["charpoly", "--builtin", "perm:2"])
    assert code == 0
    delta = doc["data"]["delta"]
    assert len(delta) == 3
    assert delta[2] == "1"
    assert delta[1] == "-L[1,1] - L[2,2]"


def test_multi_point_run_has_no_data(tmp_path):
    code, doc = run_json(tmp_path, ["charpoly", "--builtin", "std:3"])
    assert code == 0
    assert "data" not in doc


# -- determinism -------------------------------------------------------------

def test_reports_are_deterministic(tmp_path):
    _, a = run_json(tmp_path, ["newton", "--builtin", "std:3"], "a.json")
    _, b = run_json(tmp_path, ["newton", "--builtin", "std:3"], "b.json")
    assert strip_timing(a) == strip_timing(b)


def test_seed_changes_sample_points(tmp_path):
    _, a = run_json(tmp_path, ["validate", "--builtin", "std:3"], "a.json")
    _, b = run_json(tmp_path,
                    ["validate", "--builtin", "std:3", "--seed", "7"], "b.json")
    assert a["field"]["points"] != b["field"]["points"]
    assert b["config"]["seed"] == 7


def _count_builds(monkeypatch):
    builds = []
    real = Source.build

    def counted(self, fld):
        builds.append(fld)
        return real(self, fld)

    monkeypatch.setattr(Source, "build", counted)
    return builds


@pytest.mark.parametrize("command, source, field", [
    ("structure", "std:2", None),
    ("charpoly", "std:4", "evaluated:3/2"),
])
def test_single_point_data_reuses_the_checked_symmetry(monkeypatch, command,
                                                        source, field):
    builds = _count_builds(monkeypatch)
    report = run(RunConfig(command, builtin=source, field=field))
    assert report.data is not None
    assert len(builds) == 1


def test_single_point_charpoly_builds_w_once(monkeypatch):
    # verify_char_poly keeps w(x) on the symmetry, and the report's delta
    # is read from there instead of building w(x) again
    import heckelab.cli as cli
    import heckelab.invariants as inv

    calls = []
    real = inv.w_column

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    # count w_column under every name the program could call it by
    monkeypatch.setattr(inv, "w_column", counted)
    monkeypatch.setattr(cli, "w_column", counted, raising=False)
    report = run(RunConfig("charpoly", builtin="std:2", field="symbolic"))
    assert report.data["delta"]
    assert len(calls) == 1


def test_multi_point_run_builds_once_per_point(monkeypatch):
    builds = _count_builds(monkeypatch)
    report = run(RunConfig("newton", builtin="std:3"))
    assert report.field["strategy"] == "sampled:5"
    assert len(builds) == 5


def test_multi_point_run_frees_each_symmetry_before_the_next(monkeypatch):
    # a point's symmetry and its caches are garbage before the next point
    # is built, so a multi-point run holds one symmetry at a time
    refs, alive = [], []
    real = Source.build

    def tracked(self, fld):
        alive.append(sum(r() is not None for r in refs))
        h = real(self, fld)
        refs.append(weakref.ref(h))
        return h

    monkeypatch.setattr(Source, "build", tracked)
    run(RunConfig("newton", builtin="std:3"))
    assert len(refs) == 5
    assert alive == [0] * 5


def test_perm_builtin_is_bounded_like_std(monkeypatch, capsys):
    # perm:N rank would build antisymmetrizers on V^k for k up to
    # min(N + 1, 8); the bound refuses N > 4 before anything is built
    builds = _count_builds(monkeypatch)
    with pytest.raises(ConfigError, match="up to N = 4"):
        load_source(RunConfig("rank", builtin="perm:5"))
    assert main(["rank", "--builtin", "perm:5"]) == 2
    assert "up to N = 4" in capsys.readouterr().err
    assert builds == []
    assert load_source(RunConfig("rank", builtin="perm:4")).dim == 4


# The reason each modulus is refused: not an odd prime, or a prime whose
# p - 1 <= 18 admits no residue of order above the order floor.
TINY_MODULI = {0: "odd prime", 1: "odd prime", 2: "odd prime", 4: "odd prime",
               9: "odd prime", 25: "odd prime", 3: "order floor 18",
               5: "order floor 18", 7: "order floor 18", 19: "order floor 18"}


@pytest.mark.parametrize("prime", sorted(TINY_MODULI))
def test_tiny_modulus_is_config_error(prime, capsys):
    assert main(["validate", "--builtin", "std:2",
                 "--field", "modular:%d" % prime]) == 2
    err = capsys.readouterr().err
    assert "bad modulus %d" % prime in err
    assert TINY_MODULI[prime] in err
    assert "could not sample" not in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["rank", "structure"])
def test_std3_at_a_small_prime_passes_every_check(command):
    # at p = 10007 accidental zero sums mod p are common, so entries that
    # cancel must drop out of every operator the checks build
    report = run(RunConfig(command, builtin="std:3", field="modular:10007"))
    assert report.passed
    assert report.checks
    assert all(c.status == "verified-at-5-points" for c in report.checks)


# psi_12 passes Miller-Rabin to the bases 2..37 but is composite; psi_13
# passes to 2..41 too, so moduli from it up are refused by size, and one
# too long for int() to read is refused as well
UNDECIDED_MODULI = [
    pytest.param("318665857834031151167461", "odd prime", id="psi12"),
    pytest.param("3317044064679887385961981",
                 "below 3317044064679887385961981", id="psi13"),
    pytest.param("1" * 5000, "digits", id="5000-digits"),
]


@pytest.mark.parametrize("modulus, reason", UNDECIDED_MODULI)
def test_undecided_modulus_is_config_error(modulus, reason, capsys):
    assert main(["validate", "--builtin", "std:2",
                 "--field", "modular:" + modulus]) == 2
    err = capsys.readouterr().err
    assert "bad modulus " + modulus in err
    assert reason in err
    assert "Traceback" not in err


def test_61_bit_mersenne_modulus_runs(capsys):
    assert main(["validate", "--builtin", "std:2",
                 "--field", "modular:%d" % (2 ** 61 - 1)]) == 0
    assert "verified-at-5-points" in capsys.readouterr().out


def test_smallest_modulus_above_the_order_floor_runs(capsys):
    assert main(["validate", "--builtin", "std:2", "--field", "modular:23"]) == 0
    assert "verified-at-5-points" in capsys.readouterr().out


# -- input files -------------------------------------------------------------

def test_file_source_symbolic(tmp_path):
    path = write_file(tmp_path, GOOD_FILE)
    code, doc = run_json(tmp_path, ["validate", "--input", path])
    assert code == 0
    assert doc["config"]["source"] == "file:" + path
    assert doc["config"]["field"] == "symbolic"


def test_file_source_perturbed_entry_fails(tmp_path):
    doc = json.loads(json.dumps(GOOD_FILE))
    doc["entries"][1]["value"] = "q^2"
    path = write_file(tmp_path, doc)
    code, rep = run_json(tmp_path, ["validate", "--input", path])
    assert code == 1
    by_name = {c["name"]: c for c in rep["checks"]}
    assert by_name["yang_baxter"]["status"] == "failed"
    assert "residual" in by_name["yang_baxter"]["witness"]
    assert by_name["hecke_quadratic"]["status"] == "skipped"


def test_merged_status_counts_the_points_that_evaluated_a_check(tmp_path):
    # R_21^21 = (q - 3)(3q - 1) vanishes at q = 3 and 1/3 only, so the
    # braid relation holds at 2 of the 5 sampled points, and the newton
    # checks run at those 2 alone
    doc = json.loads(json.dumps(GOOD_FILE))
    doc["entries"].append({"in": [2, 1], "out": [2, 1],
                           "value": "(q - 3)*(3*q - 1)"})
    path = write_file(tmp_path, doc)
    code, rep = run_json(tmp_path, ["newton", "--input", path,
                                    "--field", "sampled:5"])
    assert code == 1
    assert {"3", "1/3"} <= set(rep["field"]["points"])
    by_name = {c["name"]: c["status"] for c in rep["checks"]}
    assert by_name["yang_baxter"] == "failed"
    assert by_name["newton_defect_1"] == "verified-at-2-points"
    assert by_name["newton_defect_2"] == "verified-at-2-points"


def test_file_with_pinned_q(tmp_path):
    doc = {"dim": 2, "q": "3/2", "entries": [
        {"in": [1, 1], "out": [1, 1], "value": "3/2"},
        {"in": [2, 2], "out": [2, 2], "value": "3/2"},
        {"in": [1, 2], "out": [2, 1], "value": "1"},
        {"in": [2, 1], "out": [1, 2], "value": "1"},
        {"in": [1, 2], "out": [1, 2], "value": "5/6"}]}
    path = write_file(tmp_path, doc)
    code, rep = run_json(tmp_path, ["newton", "--input", path])
    assert code == 0
    assert rep["config"]["field"] == "evaluated:3/2"
    assert all(c["status"] == "proved" for c in rep["checks"])


def test_pinned_q_rejects_field_flag(tmp_path, capsys):
    doc = {"dim": 2, "q": "3/2", "entries": []}
    path = write_file(tmp_path, doc)
    assert main(["validate", "--input", path, "--field", "symbolic"]) == 2
    assert "pins q" in capsys.readouterr().err


@pytest.mark.parametrize("mangle", [
    lambda d: d.pop("dim"),
    lambda d: d.__setitem__("dim", 1),
    lambda d: d.__setitem__("q", "0"),
    lambda d: d.__setitem__("entries", "nope"),
    lambda d: d["entries"].append({"in": [1, 3], "out": [1, 1], "value": "q"}),
    lambda d: d["entries"].append({"in": [1], "out": [1, 1], "value": "q"}),
    lambda d: d["entries"].append(dict(d["entries"][0])),
    lambda d: d["entries"].append(
        {"in": [2, 1], "out": [2, 1], "value": "q +"}),
    # JSON booleans load as bool, an int subclass, but are not integers
    lambda d: d.__setitem__("dim", True),
    lambda d: d["entries"][0].__setitem__("in", [True, True]),
    lambda d: d["entries"][0].__setitem__("out", [True, True]),
    lambda d: d["entries"][4].__setitem__("in", [True, 2]),
])
def test_malformed_files_exit_2(tmp_path, capsys, mangle):
    doc = json.loads(json.dumps(GOOD_FILE))
    mangle(doc)
    path = write_file(tmp_path, doc)
    assert main(["validate", "--input", path]) == 2
    assert capsys.readouterr().err.startswith("hecke-lab:")


def test_unreadable_and_unparseable_files(tmp_path, capsys):
    assert main(["validate", "--input", str(tmp_path / "absent.json")]) == 2
    bad = tmp_path / "notjson.json"
    bad.write_text("{ nope")
    assert main(["validate", "--input", str(bad)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("value, cause", [
    ("(" * 3000 + "1" + ")" * 3000, "parentheses nested deeper than 100"),
    ("q^99999999999", "written powers of q sum to more than 1000"),
    ("q^600 - q^-401", "written powers of q sum to more than 1000"),
], ids=["nesting", "degree", "degree-sum"])
def test_unbounded_entry_values_exit_2_without_a_traceback(tmp_path, value, cause):
    # rejected by the parser, before any arithmetic or recursion runs away
    doc = json.loads(json.dumps(GOOD_FILE))
    doc["entries"][4]["value"] = value
    path = write_file(tmp_path, doc)
    proc = subprocess.run(
        [sys.executable, "-m", "heckelab", "validate", "--input", path],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("hecke-lab: entry 4 value: " + cause)
    assert "Traceback" not in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize("value, field, point", [
    ("1/(q-2)", "evaluated:2", "Q at q = 2: pole at q = 2"),
    ("1/23", "modular:23", "GF(23)"),
], ids=["pole", "modulus"])
def test_entry_without_a_value_at_the_point_exits_2(tmp_path, capsys, value,
                                                     field, point):
    # the seed-7 gauge file with one entry that the field cannot evaluate
    doc = json.loads((Path(__file__).parent / "gauge-s7.json").read_text())
    doc["entries"][0]["value"] = value
    path = write_file(tmp_path, doc)
    assert main(["validate", "--input", path, "--field", field]) == 2
    err = capsys.readouterr().err
    assert err.startswith("hecke-lab: entry in=(1, 1) out=(1, 1) has no value")
    assert point in err


# -- flag validation ---------------------------------------------------------

def test_source_flags_are_exclusive(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--builtin", "std:2", "--input", "x.json"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["validate"])
    assert exc.value.code == 2


def test_bad_builtin_and_field_strings(capsys):
    assert main(["validate", "--builtin", "std:one"]) == 2
    assert main(["validate", "--builtin", "weird:2"]) == 2
    assert main(["validate", "--builtin", "std:9"]) == 2
    assert main(["validate", "--builtin", "std:2", "--field", "floating"]) == 2
    assert main(["validate", "--builtin", "std:2", "--field", "sampled:0"]) == 2
    assert main(["validate", "--builtin", "std:3", "--field", "sampled:99"]) == 2
    assert main(["validate", "--builtin", "std:2", "--field", "modular:15"]) == 2
    capsys.readouterr()


def test_text_output_and_stdout(capsys):
    code = main(["validate", "--builtin", "std:2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "overall: PASS" in out
    assert "[PASS] yang_baxter" in out


def test_output_file_keeps_stdout_quiet(tmp_path, capsys):
    out = tmp_path / "rep.txt"
    code = main(["rank", "--builtin", "std:2", "--output", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert "p = 2" in out.read_text()


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "heckelab.cli", "validate", "--builtin",
         "std:2", "--json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["status"] == "pass"


def test_package_main_runs_without_warning():
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "heckelab", "validate",
         "--builtin", "std:2", "--json"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["status"] == "pass"


# -- plumbing units ----------------------------------------------------------

def test_resolve_field_defaults():
    cases = {"std:2": "symbolic", "std:3": "sampled:5", "perm:4": "evaluated:1"}
    for builtin, want in cases.items():
        cfg = RunConfig("validate", builtin=builtin)
        plan = resolve_field(cfg, load_source(cfg))
        assert plan.label == want, builtin
    cfg = RunConfig("validate", builtin="std:4")
    assert resolve_field(cfg, load_source(cfg)).label.startswith("modular:")


def test_run_rejects_double_source():
    with pytest.raises(ConfigError):
        load_source(RunConfig("validate"))
    with pytest.raises(ConfigError):
        load_source(RunConfig("validate", builtin="std:2", input_path="x"))


def test_run_config_echo_in_report():
    rep = run(RunConfig("validate", builtin="std:2", seed=3))
    doc = rep.as_dict()
    assert doc["config"] == {"source": "builtin:std:2", "field": "symbolic",
                             "seed": 3, "rank_bound": 8}
    assert rep.exit_code() == 0
