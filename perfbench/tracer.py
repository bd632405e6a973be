"""Outside-in tracing of the enriques layers, for the traced benchmark run.

The tracer wraps chosen functions of the installed package at run time
and changes no source file.  Each wrapped call is a span; the tracer
keeps spans in memory, aggregated per (caller span, span) edge, and the
benchmark writes them out when the run ends.  A span's self time is its
duration minus the part of it that wrapped child spans cover.

The package binds functions with ``from .x import f``, so one function
can live in several module namespaces (``catalog`` and ``divisors`` both
bind ``connected_subsets``).  ``install`` patches every namespace, module
or class, that binds the original object.  A target that no longer
exists is reported as absent; its metrics read 0.
"""

import functools
import importlib
import inspect
import pkgutil
import sys
from time import perf_counter

PACKAGE = "enriques"


def _n3(args, result):
    return {"exactmat.ops_n3": len(args[0]) ** 3}


def _nterms(x):
    terms = getattr(x, "terms", None)
    if terms is not None:
        return len(terms)
    return 1 if x else 0


# (span name, module, qualified name, counter hook or None).  A hook maps
# (args, result) to counter increments; for a generator the result is
# the list of items it yielded.
TARGETS = (
    ("classify.glue", "classify", "_glue_indexed",
     lambda a, r: {"classify.glue.consistent": int(r is not None)}),
    ("classify.raw_triangles", "classify", "_raw_triangles",
     lambda a, r: {"classify.raw_keys": len(r)}),
    ("classify.make_entry", "classify", "_make_entry",
     lambda a, r: {"classify.entries": int(r is not None)}),
    ("classify.iso_test", "classify", "_isomorphic_entries", None),
    ("classify.enumerate_triangles", "classify", "enumerate_triangles",
     lambda a, r: {"classify.classes": len(r)}),
    ("classify.derive_survivors", "classify", "derive_survivors", None),
    ("divisors.build_triangle", "divisors", "build_triangle", None),
    ("divisors.fibration_capacity_ok", "divisors", "fibration_capacity_ok",
     None),
    ("divisors.connected_subsets", "divisors", "connected_subsets",
     lambda a, r: {"divisors.connected_subsets.items": len(r)}),
    ("divisors.specialness_witness", "divisors", "specialness_witness", None),
    ("divisors.internal_extender", "divisors", "internal_extender", None),
    ("rootfibers.classify_dynkin", "rootfibers", "classify_dynkin", None),
    ("rootfibers.classify_affine", "rootfibers", "classify_affine", None),
    ("rootfibers.affine_shape", "rootfibers", "affine_shape", None),
    ("rootfibers.null_vector", "rootfibers", "null_vector", None),
    ("rootfibers.fundamental_cycle", "rootfibers", "fundamental_cycle", None),
    ("rootfibers.is_negative_definite", "rootfibers", "is_negative_definite",
     None),
    ("config.subconfig", "config", "CurveConfig.subconfig", None),
    ("config.is_connected", "config", "CurveConfig.is_connected", None),
    ("config.intersect", "config", "intersect", None),
    ("lattice.rank_and_discriminant", "lattice", "rank_and_discriminant",
     None),
    ("lattice.divisibility_check", "lattice", "divisibility_check", None),
    ("lattice.in_span", "lattice", "in_span", None),
    ("lattice.solve_cossec_vector", "lattice", "solve_cossec_vector", None),
    ("exactmat.det_bareiss", "exactmat", "det_bareiss", _n3),
    ("exactmat.smith_normal_form", "exactmat", "smith_normal_form", _n3),
    ("exactmat.solve_rational", "exactmat", "solve_rational", None),
    ("catalog.verify_surface", "catalog", "verify_surface", None),
    ("catalog.fibration_records", "catalog", "fibration_records", None),
    ("catalog.nd_bounds", "catalog", "nd_bounds", None),
    ("catalog.half_fiber_class", "catalog", "half_fiber_class", None),
    ("catalog.load_surface", "catalog", "load_surface", None),
    ("polymodels.parse_poly", "polymodels", "parse_poly", None),
    ("polymodels.castelnuovo_transform", "polymodels",
     "castelnuovo_transform", None),
    ("polymodels.double_plane_octic", "polymodels", "double_plane_octic",
     None),
    ("polymodels.mul", "polymodels", "MultiPoly.__mul__",
     lambda a, r: {"polymodels.mul.term_products":
                   _nterms(a[0]) * _nterms(a[1])}),
    ("polymodels.substitute", "polymodels", "MultiPoly.substitute", None),
    ("cli.run", "cli", "run", None),
)

COUNTERS = (
    "classify.glue.consistent", "classify.raw_keys", "classify.entries",
    "classify.classes", "divisors.connected_subsets.items",
    "exactmat.ops_n3", "polymodels.mul.term_products",
)


def _resolve(module, qualname):
    """The raw function object a qualified name refers to, or None."""
    owner_name, _, attr = qualname.rpartition(".")
    if not owner_name:
        fn = getattr(module, attr, None)
        return fn if callable(fn) else None
    owner = getattr(module, owner_name, None)
    if not isinstance(owner, type):
        return None
    for klass in owner.__mro__:
        if attr in vars(klass):
            fn = vars(klass)[attr]
            return fn if callable(fn) else None
    return None


def _namespaces():
    """Every module of the package, and every class those modules define."""
    pkg = importlib.import_module(PACKAGE)
    for info in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(f"{PACKAGE}.{info.name}")
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == PACKAGE
                               or name.startswith(PACKAGE + ".")):
            continue
        yield mod
        for value in list(vars(mod).values()):
            if isinstance(value, type) and value.__module__ == name:
                yield value


class Tracer:
    def __init__(self):
        self.stack = []   # open spans: [name, time covered by child spans]
        self.edges = {}   # (caller, name) -> [calls, total_s, self_s]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.absent = []
        self._patched = []

    def install(self, targets=TARGETS):
        namespaces = list(_namespaces())
        for name, module, qualname, hook in targets:
            mod = sys.modules.get(f"{PACKAGE}.{module}")
            original = _resolve(mod, qualname) if mod else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, hook)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._patched.append((ns, attr, value))
                        setattr(ns, attr, wrapper)
        return self

    def uninstall(self):
        for ns, attr, value in reversed(self._patched):
            setattr(ns, attr, value)
        self._patched.clear()

    def _close(self, name, t0, calls):
        total = perf_counter() - t0
        _, covered = self.stack.pop()
        caller = self.stack[-1] if self.stack else None
        if caller is not None:
            caller[1] += total
        key = (caller[0] if caller else None, name)
        agg = self.edges.get(key)
        if agg is None:
            agg = self.edges[key] = [0, 0.0, 0.0]
        agg[0] += calls
        agg[1] += total
        agg[2] += total - covered

    def _count(self, hook, args, result):
        for counter, inc in hook(args, result).items():
            self.counts[counter] += inc

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.stack.append([name, 0.0])
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, t0, 1)
            if inspect.isgenerator(result):
                return self._iterate(name, result, hook, args)
            if hook is not None:
                self._count(hook, args, result)
            return result
        return traced

    def _iterate(self, name, gen, hook, args):
        """Time each resumption of a generator as a span of its function."""
        items = []
        try:
            while True:
                self.stack.append([name, 0.0])
                t0 = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(name, t0, 0)
                items.append(item)
                yield item
        finally:
            gen.close()
            if hook is not None:
                self._count(hook, args, items)

    def span_totals(self):
        """{span name: (calls, self_s)} summed over callers."""
        out = {}
        for (_, name), (calls, _, self_s) in self.edges.items():
            c, s = out.get(name, (0, 0.0))
            out[name] = (c + calls, s + self_s)
        return out

    def metrics(self):
        """Every per-layer metric of one traced repetition, by name."""
        totals = self.span_totals()
        out = {}
        for name, _, _, _ in TARGETS:
            calls, self_s = totals.get(name, (0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        out.update(self.counts)
        glue_calls = out["classify.glue.calls"]
        out["classify.useful_ratio"] = (
            out["classify.classes"] / glue_calls if glue_calls else 0.0)
        return out

    def edge_table(self):
        """The aggregated spans, for the run's output file."""
        return [
            {"caller": caller, "span": name, "calls": calls,
             "total_s": total, "self_s": self_s}
            for (caller, name), (calls, total, self_s)
            in sorted(self.edges.items(), key=lambda kv: -kv[1][1])
        ]
