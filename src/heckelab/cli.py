"""Command-line frontend.

Commands: validate | rank | structure | newton | cayley-hamilton |
charpoly.  The source is a builtin symmetry (std:N or perm:N) or a JSON
R-matrix file; the field strategy defaults by size (N=2 symbolic, N=3
sampled at 5 rational points, N=4 and up modular) and can be forced
with --field.  Field points run one after another in sampling order,
each building its own symmetry; a single-point run reads its report
data from the symmetry its checks built.  Reports are deterministic for
a fixed seed: checks are sorted by name and multi-point runs merge in
sampling order, so two runs differ only in their timing fields.

Exit codes: 0 all checks passed, 1 at least one check failed, 2
configuration or input-file error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .hecke import (
    DEFAULT_RANK_BOUND,
    Check,
    FieldError,
    HeckeError,
    HeckeViolationError,
    NotClosedError,
    YBEViolationError,
    antisym_checks,
    builtin_permutation,
    builtin_standard,
    identity_suite,
    validate,
)
from .invariants import (central_set, char_columns, char_poly, ideal_components,
                         verify_cayley_hamilton, verify_char_poly, verify_newton)
from .ncalgebra import ResourceError
from .qscalar import (
    DEFAULT_PRIME,
    FieldSpec,
    ScalarParseError,
    SpecializationError,
    format_scalar,
    make_field,
    parse_scalar,
    sample_modular_qs,
    sample_rational_qs,
)
from .tensor import TensorOperator, decode

MODULAR_POINTS = 5

COMMANDS = ("validate", "rank", "structure", "newton", "cayley-hamilton", "charpoly")


class ConfigError(ValueError):
    """Bad flags, bad builtin name, or a malformed input file (exit 2)."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    command: str
    builtin: str = None          # "std:2" / "perm:3"
    input_path: str = None       # JSON R-matrix file
    field: str = None            # None = auto by dim
    seed: int = 0
    rank_bound: int = DEFAULT_RANK_BOUND
    json_out: bool = False
    output: str = None

    def source_label(self):
        if self.builtin is not None:
            return "builtin:%s" % self.builtin
        return "file:%s" % self.input_path


@dataclass
class Source:
    """A loaded, field-independent description of the R-matrix."""
    kind: str                    # "std" | "perm" | "file"
    dim: int
    items: dict = None           # file entries {(row, col): QScalar}
    file_q: object = None        # None = symbolic file or builtin; Fraction otherwise

    def build(self, fld):
        if self.kind == "std":
            return builtin_standard(self.dim, fld)
        if self.kind == "perm":
            return builtin_permutation(self.dim, fld)
        items = {}
        for k, v in self.items.items():
            try:
                items[k] = fld.from_qscalar(v)
            except SpecializationError as e:
                raise ConfigError("entry in=%s out=%s has no value in %s: %s"
                                  % (k[0], k[1], fld.spec.describe(), e))
        return validate(TensorOperator.from_multi(self.dim, 2, items), fld)


def load_source(cfg):
    if (cfg.builtin is None) == (cfg.input_path is None):
        raise ConfigError("exactly one of --builtin and --input is required")
    if cfg.builtin is not None:
        parts = cfg.builtin.split(":")
        if len(parts) != 2 or parts[0] not in ("std", "perm") or not parts[1].isdigit():
            raise ConfigError("--builtin takes std:N or perm:N, got %r" % cfg.builtin)
        n = int(parts[1])
        if n < 2:
            raise ConfigError("builtin dimension must be at least 2")
        if n > 4:
            raise ConfigError("builtin %s symmetries are catalogued up to N = 4"
                              % parts[0])
        return Source(parts[0], n)
    return _load_rmatrix_file(cfg.input_path)


def _load_rmatrix_file(path):
    try:
        with open(path, "rb") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ConfigError("cannot read %s: %s" % (path, e))
    except ValueError as e:
        raise ConfigError("%s is not valid JSON: %s" % (path, e))
    if not isinstance(doc, dict):
        raise ConfigError("R-matrix file must be a JSON object")
    missing = {"dim", "q", "entries"} - set(doc)
    if missing:
        raise ConfigError("R-matrix file lacks keys: %s" % ", ".join(sorted(missing)))
    dim = doc["dim"]
    # type(...) is int, not isinstance: JSON true and false load as bool,
    # which is an int subclass, and are not indices
    if type(dim) is not int or dim < 2:
        raise ConfigError('"dim" must be an integer >= 2')
    file_q = None
    if doc["q"] != "symbolic":
        try:
            file_q = Fraction(str(doc["q"]))
        except (ValueError, ZeroDivisionError):
            raise ConfigError('"q" must be "symbolic" or a rational like "3/2"')
        if file_q == 0:
            raise ConfigError("q = 0 is not a valid evaluation")
    if not isinstance(doc["entries"], list):
        raise ConfigError('"entries" must be a list')
    items = {}
    for pos, ent in enumerate(doc["entries"]):
        if not isinstance(ent, dict) or {"in", "out", "value"} - set(ent):
            raise ConfigError("entry %d needs keys in, out, value" % pos)
        key = []
        for side in ("in", "out"):
            idx = ent[side]
            if (not isinstance(idx, list) or len(idx) != 2
                    or not all(type(i) is int and 1 <= i <= dim for i in idx)):
                raise ConfigError('entry %d: "%s" must be two indices in 1..%d'
                                  % (pos, side, dim))
            key.append(tuple(idx))
        key = tuple(key)
        if key in items:
            raise ConfigError("entry %d repeats in=%s out=%s" % (pos, key[0], key[1]))
        try:
            items[key] = parse_scalar(str(ent["value"]))
        except ScalarParseError as e:
            raise ConfigError("entry %d value: %s" % (pos, e))
    return Source("file", dim, items=items, file_q=file_q)


# ---------------------------------------------------------------------------
# field strategy
# ---------------------------------------------------------------------------

@dataclass
class FieldPlan:
    label: str                   # echoed in the report, e.g. "sampled:5"
    specs: list                  # FieldSpec per point
    prime: int = None

    def pass_status(self):
        if len(self.specs) == 1:
            return "proved"
        return "verified-at-%d-points" % len(self.specs)

    def point_names(self):
        out = []
        for s in self.specs:
            out.append("q" if s.mode == "symbolic" else str(s.q))
        return out


def resolve_field(cfg, src):
    """Pick the field points.  A file that pins q admits only that one
    evaluation; otherwise the explicit --field wins, then the size
    default (2 symbolic, 3 sampled, bigger modular; perm classical)."""
    if src.file_q is not None:
        if cfg.field is not None:
            raise ConfigError("the input file pins q = %s; --field is only valid "
                              'for sources with q: "symbolic"' % src.file_q)
        return FieldPlan("evaluated:%s" % src.file_q,
                         [FieldSpec.evaluated(src.file_q)])
    choice = cfg.field
    if choice is None:
        if src.kind == "perm":
            choice = "evaluated:1"
        elif src.dim == 2:
            choice = "symbolic"
        elif src.dim == 3:
            choice = "sampled:5"
        else:
            choice = "modular:%d" % DEFAULT_PRIME
    if choice == "symbolic":
        return FieldPlan(choice, [FieldSpec.symbolic()])
    kind, _, arg = choice.partition(":")
    if kind == "evaluated" and arg:
        try:
            return FieldPlan(choice, [FieldSpec.evaluated(Fraction(arg))])
        except (ValueError, ZeroDivisionError, ArithmeticError) as e:
            raise ConfigError("bad evaluation point %r: %s" % (arg, e))
    if kind == "sampled" and arg.isdigit() and int(arg) >= 1:
        try:
            qs = sample_rational_qs(int(arg), cfg.seed)
        except ValueError as e:
            raise ConfigError(str(e))
        return FieldPlan(choice, [FieldSpec.evaluated(q) for q in qs])
    if kind == "modular" and arg.isdigit():
        prime = int(arg)
        try:
            qs = sample_modular_qs(MODULAR_POINTS, prime, cfg.seed)
            specs = [FieldSpec.modular(prime, q) for q in qs]
        except ArithmeticError as e:
            raise ConfigError("bad modulus %d: %s" % (prime, e))
        return FieldPlan(choice, specs, prime=prime)
    raise ConfigError("--field takes symbolic, sampled:K, modular:P or "
                      "evaluated:Q, got %r" % choice)


# ---------------------------------------------------------------------------
# per-point pipelines; each returns (symmetry or None, [Check]), a Check
# with ok None being reported as skipped
# ---------------------------------------------------------------------------

def _build(src, spec):
    """Validated symmetry, or the axiom checks when validation fails."""
    fld = make_field(spec)
    try:
        return src.build(fld), None
    except YBEViolationError as e:
        checks = [Check("yang_baxter", False, str(e)),
                  Check("hecke_quadratic", None, "not evaluated: braid relation failed"),
                  Check("closedness", None, "not evaluated: braid relation failed")]
    except HeckeViolationError as e:
        checks = [Check("yang_baxter", True),
                  Check("hecke_quadratic", False, str(e)),
                  Check("closedness", None, "not evaluated: Hecke condition failed")]
    return None, checks


def _run_validate(src, spec, cfg):
    h, checks = _build(src, spec)
    if h is None:
        return h, checks
    try:
        h.check_closed()
        closed = Check("closedness", True)
    except NotClosedError as e:
        closed = Check("closedness", False, str(e))
    return h, [Check("yang_baxter", True), Check("hecke_quadratic", True), closed]


def _rank_or_check(h, cfg):
    try:
        return h.detect_rank(cfg.rank_bound), None
    except (HeckeError, FieldError) as e:
        return None, Check("rank_detected", False, str(e))


def _run_rank(src, spec, cfg):
    h, checks = _build(src, spec)
    if h is None:
        return h, checks
    p, bad = _rank_or_check(h, cfg)
    if bad is not None:
        return h, [bad]
    top = h.antisymmetrizer(p)
    checks = [Check("rank_detected", True, "p = %d" % p),
              Check("top_antisym_trace_one", top.trace_full() == h.field.one),
              Check("top_antisym_idempotent_rank_one", top.idempotent_rank() == 1),
              Check("vanishing_beyond_rank", h.antisymmetrizer(p + 1).is_zero())]
    return h, checks + antisym_checks(h, p)


def _run_structure(src, spec, cfg):
    h, checks = _build(src, spec)
    if h is None:
        return h, checks
    try:
        h.check_closed()
    except NotClosedError as e:
        return h, [Check("closedness", False, str(e))]
    p, bad = _rank_or_check(h, cfg)
    if bad is not None:
        return h, [bad]
    return h, identity_suite(h)


def _membership(verify, names):
    """Runner of a command whose checks are ideal memberships:
    verify(h, components) makes the checks, and names(h, p) names them
    when the ideal is refused at the column cap, so each is reported
    skipped."""
    def runner(src, spec, cfg):
        h, checks = _build(src, spec)
        if h is None:
            return h, checks
        p, bad = _rank_or_check(h, cfg)
        if bad is not None:
            return h, [bad]
        try:
            comps = ideal_components(h, p)
        except ResourceError as e:
            return h, [Check(name, None, str(e)) for name in names(h, p)]
        return h, verify(h, comps)
    return runner


# The verifiers are looked up when a runner runs, not bound here, so a
# caller that rebinds this module's attributes (a tracer) sees the calls.
_RUNNERS = {
    "validate": _run_validate,
    "rank": _run_rank,
    "structure": _run_structure,
    "newton": _membership(
        lambda h, comps: verify_newton(h, central_set(h), comps),
        lambda h, p: ["newton_defect_%d" % i for i in range(1, p + 1)]),
    "cayley-hamilton": _membership(
        lambda h, comps: verify_cayley_hamilton(h, central_set(h), comps),
        lambda h, p: ["cayley_hamilton_entry_%d_%d" % (a, b)
                      for a in range(1, h.dim + 1) for b in range(1, h.dim + 1)]),
    "charpoly": _membership(
        lambda h, comps: verify_char_poly(h, comps),
        lambda h, p: ["char_poly_coeff_%d" % i for i in range(p + 1)]
        + ["char_column_eigen_relation"]),
}


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

@dataclass
class CheckRecord:
    name: str
    status: str                  # proved | verified-at-k-points | failed | skipped
    witness: str = None
    time_ms: float = 0.0

    def as_dict(self):
        return {"name": self.name, "status": self.status,
                "witness": self.witness, "time_ms": round(self.time_ms, 3)}


@dataclass
class Report:
    command: str
    config: dict
    field: dict
    checks: list
    data: dict = None

    @property
    def passed(self):
        return all(c.status != "failed" for c in self.checks)

    def exit_code(self):
        return 0 if self.passed else 1

    def as_dict(self):
        out = {
            "schema": 1,
            "version": __version__,
            "command": self.command,
            "config": self.config,
            "field": self.field,
            "status": "pass" if self.passed else "fail",
            "checks": [c.as_dict() for c in self.checks],
        }
        if self.data is not None:
            out["data"] = self.data
        return out

    def to_json(self):
        return json.dumps(self.as_dict(), indent=2) + "\n"

    def to_text(self):
        tag = {"proved": "PASS", "failed": "FAIL", "skipped": "SKIP"}
        lines = ["hecke-lab %s  %s" % (__version__, self.command),
                 "source: %s   field: %s   seed: %d" % (
                     self.config["source"], self.field["strategy"],
                     self.config["seed"])]
        if self.field.get("prime"):
            lines.append("modulus: %d" % self.field["prime"])
        lines.append("points: %s" % ", ".join(self.field["points"]))
        for key, block in sorted((self.data or {}).items()):
            if isinstance(block, dict):
                for sub in sorted(block):
                    lines.append("%s[%s] = %s" % (key, sub, block[sub]))
            elif isinstance(block, list):
                for i, piece in enumerate(block):
                    lines.append("%s[x^%d] = %s" % (key, i, piece))
            else:
                lines.append("%s = %s" % (key, block))
        for c in self.checks:
            label = tag.get(c.status, "PASS")
            line = "[%s] %-40s %s" % (label, c.name, c.status)
            if c.witness:
                line += "   (%s)" % c.witness
            lines.append(line)
        lines.append("overall: %s" % ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines) + "\n"


def _merge_points(plan, point_checks, timings):
    """Fold the per-point checks into one record per check name.
    Point order is the sampling order, so merging is deterministic."""
    by_name = {}
    for specno, checks in enumerate(point_checks):
        for c in checks:
            by_name.setdefault(c.name, []).append((specno, c))
    merged = []
    pass_status = plan.pass_status()
    names = plan.point_names()
    share = sum(timings) / max(len(by_name), 1)
    for name in sorted(by_name):
        rows = by_name[name]
        fails = [(i, c.witness) for i, c in rows if c.ok is False]
        skips = [c.witness for _, c in rows if c.ok is None]
        if fails:
            i, w = fails[0]
            wit = w if len(plan.specs) == 1 else "at q = %s: %s" % (names[i], w)
            merged.append(CheckRecord(name, "failed", wit, share))
        elif skips:
            merged.append(CheckRecord(name, "skipped", skips[0], share))
        else:
            wit = rows[0][1].witness if len({c.witness for _, c in rows}) == 1 else None
            merged.append(CheckRecord(name, pass_status, wit, share))
    return merged


def _run_points(plan, fn):
    """fn(spec) -> (symmetry, checks) for every field point, one after
    another in sampling order.  Returns the checks, the times in ms and,
    for a single-point plan, its symmetry; on a multi-point plan each
    symmetry is dropped before the next point is built."""
    point_checks, timings = [], []
    for spec in plan.specs:
        h = None
        t0 = time.perf_counter()
        h, checks = fn(spec)
        timings.append((time.perf_counter() - t0) * 1000.0)
        point_checks.append(checks)
    return point_checks, timings, h if len(plan.specs) == 1 else None


# ---------------------------------------------------------------------------
# structure/charpoly report payloads (single-point runs only)
# ---------------------------------------------------------------------------

def _format_vector(t, axis):
    """A column (axis 0) by its row index or a row (axis 1) by its column
    index."""
    return {",".join(map(str, decode(key[axis], t.dim, t.arity))):
            format_scalar(v) for key, v in sorted(t.entries.items())}


def _format_op(t):
    out = {}
    for (r, c), v in sorted(t.entries.items()):
        row = ",".join(map(str, decode(r, t.dim, t.arity)))
        col = ",".join(map(str, decode(c, t.dim, t.arity)))
        out["%s|%s" % (row, col)] = format_scalar(v)
    return out


def _structure_data(h):
    u, v = h.levi_civita()
    c = h.matrix_c()
    b = h.matrix_b()
    return {
        "rank": h.detect_rank(),
        "u": _format_vector(u, 0),
        "v": _format_vector(v, 1),
        "c": _format_op(c),
        "b": _format_op(b),
        "trace_c": format_scalar(c.trace_full()),
        "trace_b": format_scalar(b.trace_full()),
    }


def _charpoly_data(h):
    cp = char_poly(h, h.levi_civita()[1], char_columns(h))
    return {"delta": [str(co) for co in cp.coeffs]}


# ---------------------------------------------------------------------------
# command entry points
# ---------------------------------------------------------------------------

def run(cfg):
    src = load_source(cfg)
    plan = resolve_field(cfg, src)
    runner = _RUNNERS[cfg.command]
    point_checks, timings, h = _run_points(plan, lambda spec: runner(src, spec, cfg))
    checks = _merge_points(plan, point_checks, timings)
    data = None
    if h is not None and all(c.status != "failed" for c in checks):
        if cfg.command == "structure":
            data = _structure_data(h)
        elif cfg.command == "charpoly":
            data = _charpoly_data(h)
    field_echo = {"strategy": plan.label, "points": plan.point_names()}
    if plan.prime is not None:
        field_echo["prime"] = plan.prime
    config_echo = {
        "source": cfg.source_label(),
        "field": plan.label,
        "seed": cfg.seed,
        "rank_bound": cfg.rank_bound,
    }
    return Report(cfg.command, config_echo, field_echo, checks, data)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(
        prog="hecke-lab",
        description="Exact validation and trace-identity verification for "
                    "Hecke-type R-matrices.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True, metavar="command")
    for name in COMMANDS:
        sp = sub.add_parser(name)
        g = sp.add_mutually_exclusive_group(required=True)
        g.add_argument("--builtin", metavar="std:N|perm:N")
        g.add_argument("--input", metavar="FILE", help="JSON R-matrix file")
        sp.add_argument("--field", metavar="symbolic|sampled:K|modular:P",
                        default=None)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--rank-bound", type=int, default=DEFAULT_RANK_BOUND)
        sp.add_argument("--json", action="store_true", dest="json_out")
        sp.add_argument("--output", metavar="FILE", default=None)
    return ap


def main(argv=None):
    ap = build_parser()
    ns = ap.parse_args(argv)
    cfg = RunConfig(command=ns.command, builtin=ns.builtin,
                    input_path=ns.input, field=ns.field, seed=ns.seed,
                    rank_bound=ns.rank_bound, json_out=ns.json_out,
                    output=ns.output)
    if cfg.rank_bound < 1:
        print("hecke-lab: --rank-bound must be positive", file=sys.stderr)
        return 2
    try:
        report = run(cfg)
    except ConfigError as e:
        print("hecke-lab: %s" % e, file=sys.stderr)
        return 2
    text = report.to_json() if cfg.json_out else report.to_text()
    if cfg.output:
        try:
            with open(cfg.output, "w") as fh:
                fh.write(text)
        except OSError as e:
            print("hecke-lab: cannot write %s: %s" % (cfg.output, e),
                  file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
