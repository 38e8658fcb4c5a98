"""Spans and counts around the public API of heckelab, from outside it.

``Tracer.install`` wraps every public function of the traced modules at
every module attribute that binds it (``cli`` and ``invariants`` import
functions by name), every public method of their classes, and the
operator methods of ``TensorOperator`` and ``ContraTensor``. Each call
records a span: name, start, end, parent. The parent is the innermost
open span of the calling thread; a worker thread with no open span of
its own hangs its spans under the innermost open span of the main
thread, so work done in the program's point pool is attributed to the
``cli.run`` that started it.

The scalar types are counted, not spanned: a span per scalar operation
would swamp the run. Arithmetic operator calls on ``ModInt`` and
``QScalar`` increment an ``itertools.count``, whose ``next`` is atomic
under the interpreter lock, so counts repeat exactly across passes even
with the point pool running.

Spans stay in memory until ``aggregate`` and ``write_spans`` run after
the pass.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import threading
import time
from collections import defaultdict

TRACED_MODULES = ("qscalar", "tensor", "hecke", "ncalgebra", "invariants", "cli")
COUNTED_CLASSES = {"qscalar.ModInt": "qscalar.modint.ops",
                   "qscalar.QScalar": "qscalar.qscalar.ops"}
UNTRACED_CLASSES = ("qscalar.LaurentQ", "ncalgebra.NCPoly")
ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__")
SPANNED_OPERATORS = {"tensor.TensorOperator": ("__matmul__", "__add__", "__sub__"),
                     "tensor.ContraTensor": ("__matmul__",)}

# Names the per-layer metrics read. A later version of the program may
# delete any of them; they are then reported absent.
EXPECTED = (
    "qscalar.ModInt", "qscalar.QScalar",
    "tensor.TensorOperator.__matmul__",
    "hecke.builtin_standard", "hecke.builtin_permutation", "hecke.validate",
    "hecke.HeckeSymmetry.detect_rank", "hecke.HeckeSymmetry.antisymmetrizer",
    "hecke.antisym_checks", "hecke.identity_suite",
    "ncalgebra.ideal_component", "ncalgebra.EchelonBasis.insert",
    "ncalgebra.is_member",
    "invariants.central_set", "invariants.sigma", "invariants.w_column",
    "invariants.char_poly", "invariants.verify_newton",
    "invariants.verify_cayley_hamilton", "invariants.verify_char_poly",
    "invariants.eigen_relation_check",
    "cli.run", "cli.load_source",
)

# span record fields
NAME, START, END, PARENT, TAG = range(5)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counters = {}
        self._reads = defaultdict(int)
        self.wrapped = set()
        self._local = threading.local()
        self._main = []
        self._main_ident = threading.main_thread().ident
        self._undo = []

    # -- span recording -----------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.get_ident() == self._main_ident
            stack = self._local.stack = self._main if main else []
        return stack

    def open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main
            parent = main[-1] if main else None
        rec = [name, self.clock(), None, parent, None]
        self.spans.append(rec)
        stack.append(rec)
        return rec

    def close(self, rec):
        rec[END] = self.clock()
        self._stack().pop()

    def span_wrapper(self, fn, name, observe=None):
        tracer = self

        def wrapper(*args, **kwargs):
            rec = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(rec)
                if observe is not None:
                    rec[TAG] = observe(args, kwargs, None, exc)
                raise
            tracer.close(rec)
            if observe is not None:
                rec[TAG] = observe(args, kwargs, result, None)
            return result

        return functools.wraps(fn)(wrapper)

    def count_wrapper(self, fn, counter):
        tick = counter.__next__

        def wrapper(self, *args):
            tick()
            return fn(self, *args)

        return functools.wraps(fn)(wrapper)

    # -- installation -------------------------------------------------------

    def install(self, package, observers=None):
        """Wrap the traced modules of ``package`` (the imported heckelab)."""
        observers = observers or {}
        modules = {m: getattr(package, m) for m in TRACED_MODULES}
        replace = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = "%s.%s" % (short, attr)
                if inspect.isfunction(obj):
                    replace[id(obj)] = (obj, self.span_wrapper(
                        obj, name, observers.get(name)))
                    self.wrapped.add(name)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(obj, name, observers)
        for mod in [package] + list(modules.values()):
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])

    def _wrap_class(self, cls, name, observers):
        if name in UNTRACED_CLASSES:
            return
        if name in COUNTED_CLASSES:
            counter = itertools.count()
            self.counters[COUNTED_CLASSES[name]] = counter
            for attr in ARITHMETIC:
                raw = cls.__dict__.get(attr)
                if inspect.isfunction(raw):
                    self._set(cls, attr, self.count_wrapper(raw, counter))
            self.wrapped.add(name)
            return
        operators = SPANNED_OPERATORS.get(name, ())
        for attr, raw in list(cls.__dict__.items()):
            if attr.startswith("_") and attr not in operators:
                continue
            full = "%s.%s" % (name, attr)
            observe = observers.get(full)
            if isinstance(raw, (classmethod, staticmethod)):
                kind = type(raw)
                new = kind(self.span_wrapper(raw.__func__, full, observe))
            elif inspect.isfunction(raw):
                new = self.span_wrapper(raw, full, observe)
            else:
                continue
            self._set(cls, attr, new)
            self.wrapped.add(full)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def absent(self):
        return [n for n in EXPECTED if n not in self.wrapped]

    def counts(self):
        """Calls counted so far; each read advances the counter by one,
        which later reads subtract."""
        out = {}
        for name, counter in self.counters.items():
            out[name] = next(counter) - self._reads[name]
            self._reads[name] += 1
        return out


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans):
    """Self time per span, keyed by id(span): its duration minus the part
    of its interval that its children cover. Children in two threads may
    overlap; their union is subtracted once."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[id(s[PARENT])].append((s[START], s[END]))
    return {id(s): (s[END] - s[START])
            - covered(children.get(id(s), ()), s[START], s[END])
            for s in spans}


def _has_ancestor(span, test):
    p = span[PARENT]
    while p is not None:
        if test(p):
            return True
        p = p[PARENT]
    return False


def busy(spans, names):
    """Summed duration of the outermost spans among ``names``: a call
    nested inside another call of the set is not counted twice."""
    names = set(names)
    return sum(s[END] - s[START] for s in spans if s[NAME] in names
               and not _has_ancestor(s, lambda p: p[NAME] in names))


def module_of(name):
    return name.split(".", 1)[0]


def layer_busy_over_wall(spans):
    """Summed duration of the topmost spans outside ``cli`` (the layer
    calls made by each point of the pool) over the wall time of the
    ``cli.run`` spans that own them. Above 1 means points overlapped."""
    wall = busy(spans, ["cli.run"])
    top = sum(s[END] - s[START] for s in spans
              if module_of(s[NAME]) != "cli"
              and _has_ancestor(s, lambda p: p[NAME] == "cli.run")
              and not _has_ancestor(s, lambda p: module_of(p[NAME]) != "cli"))
    return top / wall if wall else 0.0


# ---------------------------------------------------------------------------
# observers: structural counts read off arguments and results
# ---------------------------------------------------------------------------

def make_observers(package):
    ncpoly = package.ncalgebra.NCPoly
    resource_error = package.ncalgebra.ResourceError
    tensor_operator = package.tensor.TensorOperator

    def matmul(args, kwargs, result, exc):
        """(entry products, those with an NC-polynomial factor, output
        entries), from the operands' sparsity."""
        a, b = args
        if result is None or result is NotImplemented:
            return None
        if not isinstance(b, tensor_operator):  # operator times vector
            pairs = [(v, b.entries[c]) for (_, c), v in a.entries.items()
                     if c in b.entries]
            nc = sum(1 for v, w in pairs
                     if isinstance(v, ncpoly) or isinstance(w, ncpoly))
            return (len(pairs), nc, len(result.entries))
        per_row, nc_row = defaultdict(int), defaultdict(int)
        for (r, _), v in b.entries.items():
            per_row[r] += 1
            nc_row[r] += isinstance(v, ncpoly)
        products = nc = 0
        for (_, k), v in a.entries.items():
            n = per_row.get(k, 0)
            products += n
            nc += n if isinstance(v, ncpoly) else nc_row.get(k, 0)
        return (products, nc, len(result.entries))

    def ideal_component(args, kwargs, result, exc):
        relations = args[0]
        d = args[1] if len(args) > 1 else kwargs.get("d")
        n = 0
        for r in relations:
            for m in r.terms:
                if m:
                    n = max(n, max(m))
        refused = isinstance(exc, resource_error)
        rank = result.rank if result is not None else 0
        return (d, refused, rank, n)

    def insert(args, kwargs, result, exc):
        return bool(result)

    return {"tensor.TensorOperator.__matmul__": matmul,
            "ncalgebra.ideal_component": ideal_component,
            "ncalgebra.EchelonBasis.insert": insert}


def flat_count(n, d):
    """Dimension of the degree-d ideal slice of a flat deformation of
    the polynomial ring in n^2 variables: n^(2d) - C(n^2 + d - 1, d)."""
    return n ** (2 * d) - math.comb(n * n + d - 1, d)


def aggregate(tracer, wall_s):
    """The per-layer metrics of one traced pass, by name."""
    spans = [s for s in tracer.spans if s[END] is not None]
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[NAME]].append(s)

    def tags(name):
        return [s[TAG] for s in by_name.get(name, ()) if s[TAG] is not None]

    def self_of(module):
        return sum(selfs[id(s)] for s in spans if module_of(s[NAME]) == module)

    m = {}
    counts = tracer.counts()
    m["qscalar.modint.ops"] = counts.get("qscalar.modint.ops", 0)
    m["qscalar.qscalar.ops"] = counts.get("qscalar.qscalar.ops", 0)

    mm = tags("tensor.TensorOperator.__matmul__")
    m["tensor.matmul.calls"] = len(by_name.get("tensor.TensorOperator.__matmul__", ()))
    m["tensor.matmul.busy_s"] = busy(spans, ["tensor.TensorOperator.__matmul__"])
    m["tensor.matmul.products"] = sum(t[0] for t in mm)
    m["tensor.matmul_nc.products"] = sum(t[1] for t in mm)
    m["tensor.matmul.max_out_nnz"] = max((t[2] for t in mm), default=0)
    m["tensor.self_s"] = self_of("tensor")

    m["hecke.build.busy_s"] = busy(spans, ["hecke.builtin_standard",
                                           "hecke.builtin_permutation",
                                           "hecke.validate"])
    m["hecke.detect_rank.busy_s"] = busy(spans, ["hecke.HeckeSymmetry.detect_rank"])
    m["hecke.antisymmetrizer.calls"] = len(by_name.get(
        "hecke.HeckeSymmetry.antisymmetrizer", ()))
    m["hecke.antisym_checks.busy_s"] = busy(spans, ["hecke.antisym_checks"])
    m["hecke.identity_suite.busy_s"] = busy(spans, ["hecke.identity_suite"])
    m["hecke.self_s"] = self_of("hecke")

    ic = by_name.get("ncalgebra.ideal_component", ())
    for d in (2, 3):
        at = [s for s in ic if s[TAG] is not None and s[TAG][0] == d
              and not s[TAG][1]]
        m["ncalgebra.ideal_component.d%d.busy_s" % d] = sum(
            s[END] - s[START] for s in at)
    d3 = [t for t in tags("ncalgebra.ideal_component") if t[0] == 3 and not t[1]]
    m["ncalgebra.ideal_component.d3.rank"] = sum(t[2] for t in d3)
    m["ncalgebra.ideal_component.d3.flat_rank"] = sum(flat_count(t[3], 3) for t in d3)
    m["ncalgebra.ideal_component.refused"] = sum(
        1 for t in tags("ncalgebra.ideal_component") if t[1])
    ins = tags("ncalgebra.EchelonBasis.insert")
    m["ncalgebra.echelon.inserts"] = len(ins)
    m["ncalgebra.echelon.useful_ratio"] = sum(ins) / len(ins) if ins else 0.0
    m["ncalgebra.is_member.calls"] = len(by_name.get("ncalgebra.is_member", ()))
    m["ncalgebra.is_member.busy_s"] = busy(spans, ["ncalgebra.is_member"])
    m["ncalgebra.self_s"] = self_of("ncalgebra")

    for fn in ("central_set", "sigma", "w_column", "char_poly", "verify_newton",
               "verify_cayley_hamilton", "verify_char_poly",
               "eigen_relation_check"):
        m["invariants.%s.busy_s" % fn] = busy(spans, ["invariants.%s" % fn])
    m["invariants.self_s"] = self_of("invariants")

    m["cli.run.calls"] = len(by_name.get("cli.run", ()))
    m["cli.load_source.busy_s"] = busy(spans, ["cli.load_source"])
    m["cli.self_s"] = self_of("cli")
    m["cli.layer_busy_over_wall"] = layer_busy_over_wall(spans)

    m["trace.spans"] = len(spans)
    m["trace.absent"] = len(tracer.absent())
    m["trace.wall_s"] = wall_s
    return m


def write_spans(tracer, path):
    """One line per span: id, parent id, name, start, end (seconds)."""
    ids = {id(s): i for i, s in enumerate(tracer.spans)}
    with open(path, "w") as fh:
        fh.write("id\tparent\tname\tstart\tend\n")
        for i, s in enumerate(tracer.spans):
            parent = "" if s[PARENT] is None else str(ids.get(id(s[PARENT]), ""))
            end = "" if s[END] is None else "%.9f" % s[END]
            fh.write("%d\t%s\t%s\t%.9f\t%s\n" % (i, parent, s[NAME], s[START], end))
