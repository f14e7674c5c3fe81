"""Per-layer spans and counters for extraspecial, recorded from outside the package.

`Tracer.install()` replaces the public functions and methods listed in
`_SPANS` with timing wrappers.  A function is replaced in every loaded
`extraspecial` module that holds it, because `cli`, `cohomology`, `forms`,
`catalog` and `dialg` re-bind their imports by name (`from .linalg import
kernel_basis`); patching only the defining module would miss those calls.
`uninstall()` puts every original back.  Nothing under `src/` changes.

Spans are kept in memory as (id, name, start, end, parent id, op id) and
written out only when the run ends.  A span's self time is its duration
minus the time of its direct child spans.  `Field.coerce` and `poly_eval`
get bare counters instead of spans, so their overhead stays bounded.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import Counter
from time import perf_counter

# (module, attribute, span name); "Class.method" patches the class itself.
# A name of None means the span name depends on the call (see _cocycle_span_name).
_SPANS = [
    ("linalg", "sparse_reduce", "linalg.sparse_reduce"),
    ("linalg", "kernel_basis", "linalg.kernel_basis"),
    ("linalg", "Subspace.__init__", "linalg.Subspace.init"),
    ("linalg", "Subspace.contains", "linalg.Subspace.contains"),
    ("linalg", "Matrix.rank", "linalg.Matrix.rank"),
    ("linalg", "Matrix.nullspace", "linalg.Matrix.nullspace"),
    ("linalg", "Matrix.inverse", "linalg.Matrix.inverse"),
    ("linalg", "Matrix.matmul", "linalg.Matrix.matmul"),
    ("linalg", "Matrix.char_poly", "linalg.char_poly"),
    ("linalg", "Matrix.jordan_structure", "linalg.jordan_structure"),
    ("linalg", "poly_mul", "linalg.poly"),
    ("linalg", "poly_sub", "linalg.poly"),
    ("linalg", "poly_divmod", "linalg.poly"),
    ("linalg", "roots_in_field", "linalg.roots_in_field"),
    # check_identity is `identity_violation(...) is None`, and the CLI's
    # `check` command calls identity_violation directly, so the dim^3 loop
    # is timed at identity_violation under the check_identity name.
    ("algebra", "identity_violation", "algebra.check_identity"),
    ("algebra", "center", "algebra.center"),
    ("algebra", "derived_ideal", "algebra.derived_ideal"),
    ("algebra", "is_extra_special", "algebra.is_extra_special"),
    ("catalog", "make_canonical", "catalog.make_canonical"),
    ("catalog", "central_sum", "catalog.central_sum"),
    ("cohomology", "cocycle_space", None),
    ("cohomology", "cover", "cohomology.cover"),
    ("cohomology", "z_star", "cohomology.z_star"),
    ("forms", "form_of", "forms.form_of"),
    ("forms", "regularize", "forms.regularize"),
    ("forms", "cosquare", "forms.cosquare"),
    ("forms", "classify", "forms.classify"),
    ("serialize", "parse_algebra", "serialize.parse_algebra"),
    # write_algebra is json.dumps(algebra_to_doc(x)); the CLI calls
    # algebra_to_doc and leaves printing to main(), so algebra_to_doc is
    # the boundary both write paths cross.
    ("serialize", "algebra_to_doc", "serialize.write_algebra"),
    ("dialg", "diassociativity_violation", "dialg.diassociativity"),
    ("cli", "main", "cli.main"),
    ("cli", "verify_theorems", "cli.verify_theorems"),
    ("cli", "_sweep_row", "cli.sweep_row"),
]

# name -> unit of every per-layer metric.  The self times of cover, z_star,
# serialize, cli.main, cli.verify_theorems, cli.sweep_row and dialg are left
# out: on some workload they never run, and a time of exactly zero carries
# no measurement.  Their call counts are in, and `span_table()` reports every
# span's self time.
METRIC_UNITS = {
    "scalars.coerce.calls": "count",
    "linalg.sparse_reduce.calls": "count",
    "linalg.sparse_reduce.self_s": "s",
    "linalg.sparse_reduce.rows_in": "count",
    "linalg.sparse_reduce.nnz_in": "count",
    "linalg.sparse_reduce.rank": "count",
    "linalg.kernel_basis.self_s": "s",
    "linalg.Subspace.init.calls": "count",
    "linalg.Subspace.init.self_s": "s",
    "linalg.Subspace.contains.calls": "count",
    "linalg.Subspace.contains.self_s": "s",
    "linalg.Matrix.rank.self_s": "s",
    "linalg.Matrix.nullspace.self_s": "s",
    "linalg.Matrix.inverse.self_s": "s",
    "linalg.Matrix.matmul.self_s": "s",
    "linalg.char_poly.self_s": "s",
    "linalg.jordan_structure.self_s": "s",
    "linalg.poly.calls": "count",
    "linalg.poly.self_s": "s",
    "linalg.roots_in_field.calls": "count",
    "linalg.roots_in_field.self_s": "s",
    "linalg.roots_in_field.candidates": "count",
    "linalg.roots_in_field.roots_found": "count",
    "linalg.roots_in_field.hit_ratio": "ratio",
    "algebra.check_identity.calls": "count",
    "algebra.check_identity.self_s": "s",
    "algebra.check_identity.triples": "count",
    "algebra.center.calls": "count",
    "algebra.center.self_s": "s",
    "algebra.derived_ideal.calls": "count",
    "algebra.derived_ideal.self_s": "s",
    "algebra.is_extra_special.calls": "count",
    "catalog.make_canonical.self_s": "s",
    "catalog.central_sum.self_s": "s",
    "cohomology.cocycle_space.assoc.calls": "count",
    "cohomology.cocycle_space.assoc.self_s": "s",
    "cohomology.cocycle_space.leibniz-left.calls": "count",
    "cohomology.cocycle_space.leibniz-left.self_s": "s",
    "cohomology.cocycle_space.unique_ratio": "ratio",
    "cohomology.cover.calls": "count",
    "cohomology.z_star.calls": "count",
    "forms.form_of.calls": "count",
    "forms.form_of.self_s": "s",
    "forms.regularize.calls": "count",
    "forms.regularize.self_s": "s",
    "forms.cosquare.calls": "count",
    "forms.cosquare.self_s": "s",
    "forms.classify.calls": "count",
    "forms.classify.self_s": "s",
    "serialize.parse_algebra.calls": "count",
    "serialize.parse_algebra.bytes_in": "bytes",
    "serialize.write_algebra.calls": "count",
    "serialize.write_algebra.bytes_out": "bytes",
    "cli.import_s": "s",
}


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "extraspecial" or name.startswith("extraspecial."))]


class Tracer:
    """In-memory span recorder; `op` tags the spans of the op in flight."""

    def __init__(self):
        self.op = "setup"
        self.spans = []          # (id, name, start, end, parent id, op)
        self.agg = {}            # name -> [calls, total_s, self_s]
        self.counts = Counter()
        self._stack = []         # open frames: [span id, child time]
        self._next_id = 0
        self._pairs = set()      # distinct (algebra, theory) cocycle solves
        self._docs_out = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(tracer, args)
            span_name = name(args) if callable(name) else name
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                tracer.spans.append((span_id, span_name, start, end, parent, tracer.op))
                row = tracer.agg.get(span_name)
                if row is None:
                    row = tracer.agg[span_name] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += dur
                row[2] += dur - frame[1]
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def _counter(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in _modules()}
        hooks = {
            "sparse_reduce": (_count_rows, _count_rank),
            "identity_violation": (None, _count_triples),
            "cocycle_space": (None, _record_pair),
            "roots_in_field": (None, _count_roots),
            "parse_algebra": (_count_bytes_in, None),
            "algebra_to_doc": (None, _keep_doc),
        }
        for module, attr, name in _SPANS:
            before, after = hooks.get(attr, (None, None))
            if name is None:
                name = _cocycle_span_name
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mods[module], cls_name)
                self._patch_class(cls, meth, self._wrap(name, cls.__dict__[meth], before, after))
            else:
                orig = getattr(mods[module], attr)
                self._patch_everywhere(orig, self._wrap(name, orig, before, after))
        field_cls = mods["scalars"].Field
        self._patch_class(field_cls, "coerce",
                          self._counter("scalars.coerce.calls", field_cls.__dict__["coerce"]))
        poly_eval = mods["linalg"].poly_eval
        self._patch_everywhere(poly_eval,
                               self._counter("linalg.roots_in_field.candidates", poly_eval))
        return self

    def _patch_class(self, cls, attr, new):
        old = cls.__dict__[attr]
        setattr(cls, attr, new)
        self._undo.append((cls, attr, old))

    def _patch_everywhere(self, orig, new):
        for m in _modules():
            for attr, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, attr, new)
                    self._undo.append((m, attr, orig))

    def uninstall(self):
        while self._undo:
            target, attr, old = self._undo.pop()
            setattr(target, attr, old)

    # -- results -----------------------------------------------------------

    def metrics(self, import_s: float) -> dict:
        """Per-layer metrics, `{name: value}`, over everything recorded."""
        counts = self.counts
        candidates = counts["linalg.roots_in_field.candidates"]
        solves = sum(calls for name, (calls, _, _) in self.agg.items()
                     if name.startswith("cohomology.cocycle_space."))
        derived = {
            "linalg.roots_in_field.hit_ratio":
                counts["linalg.roots_in_field.roots_found"] / candidates if candidates else 0.0,
            "cohomology.cocycle_space.unique_ratio": len(self._pairs) / solves if solves else 0.0,
            "serialize.write_algebra.bytes_out":
                sum(len(json.dumps(doc, indent=2)) for doc in self._docs_out),
            "cli.import_s": import_s,
        }
        out = {}
        for key in METRIC_UNITS:
            span, _, stat = key.rpartition(".")
            calls, _, self_s = self.agg.get(span, (0, 0.0, 0.0))
            if key in derived:
                out[key] = derived[key]
            elif stat == "self_s":
                out[key] = self_s
            elif stat == "calls" and key not in counts:
                out[key] = calls
            else:
                out[key] = counts[key]
        return out

    def span_table(self) -> dict:
        """Every span name with calls, total and self seconds."""
        return {name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.agg.items())}

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)


def _cocycle_span_name(args):
    return f"cohomology.cocycle_space.{args[1].value}"


def _count_rows(tracer, args):
    field, rows = args[0], args[1]
    counts = tracer.counts

    def counted():
        for row in rows:
            counts["linalg.sparse_reduce.rows_in"] += 1
            counts["linalg.sparse_reduce.nnz_in"] += len(row)
            yield row

    return (field, counted()) + tuple(args[2:])


def _count_rank(tracer, args, result):
    tracer.counts["linalg.sparse_reduce.rank"] += len(result)


def _count_triples(tracer, args, result):
    tracer.counts["algebra.check_identity.triples"] += args[0].dim ** 3


def _record_pair(tracer, args, result):
    tracer._pairs.add((args[0], args[1]))


def _count_roots(tracer, args, result):
    tracer.counts["linalg.roots_in_field.roots_found"] += len(result[0])


def _count_bytes_in(tracer, args):
    tracer.counts["serialize.parse_algebra.bytes_in"] += len(args[0])
    return args


def _keep_doc(tracer, args, result):
    tracer._docs_out.append(result)
