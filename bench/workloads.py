"""The benchmark's four workloads: seeded inputs, one pass of ops, and a
correctness gate on every op.

Every workload is a closed loop with one client: the next op starts only
after the previous one returns.  A pass is a fixed, seeded list of ops;
`run.py` repeats whole passes, so the op mix of a run never depends on how
fast the program is.  `run_pass` returns `(label, seconds, answer)` per op
and does no checking; `check` compares the answers with ground truth
afterwards, outside the timed region.

Ground truth comes from the paper's theorems wherever one applies: the
associative multiplier of an extra special algebra of dimension n is
(n-1)^2 - 1 (1 for J1), the Leibniz one agrees except J1 -> 1, J2 -> 4 and
H2(-1) -> 5, Z* equals the center, and a congruence scramble P^T M P keeps
the block decomposition of M.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from extraspecial import algebra, catalog, cohomology, dialg, forms, serialize
from extraspecial import cli as es_cli
from extraspecial.algebra import IdentityKind
from extraspecial.catalog import BlockDescriptor
from extraspecial.errors import InputError, InternalCheckFailure, Unsupported
from extraspecial.linalg import Matrix
from extraspecial.scalars import Field

Q = Field.rationals()
ASSOC = IdentityKind.ASSOCIATIVE
LEIBNIZ = IdentityKind.LEIBNIZ_LEFT

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


class Raised:
    """Answer of an op that raised instead of returning."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __repr__(self):
        return f"Raised({self.text})"


def _holds(predicate) -> bool:
    """A check that raises fails its op instead of stopping the run."""
    try:
        return bool(predicate())
    except Exception:
        return False


class Workload:
    """What `run.py` uses besides `run_pass` and `check`; `ops` have labels."""

    ops: list = []

    @property
    def inputs(self) -> list[str]:
        return [op.label for op in self.ops]

    def until_first_op(self) -> None:
        """Work a fresh process does after building its inputs and before its first op."""

    def close(self) -> None:
        pass


def _no_tag(index: int) -> None:
    pass


# ---------------------------------------------------------------------------
# ground truth from the paper
# ---------------------------------------------------------------------------


def assoc_multiplier(blocks, dim: int) -> int:
    if len(blocks) == 1 and blocks[0] == BlockDescriptor("j", 1):
        return 1
    return (dim - 1) ** 2 - 1


def leibniz_multiplier(blocks, field: Field, dim: int) -> int:
    if len(blocks) == 1:
        d = blocks[0]
        if d.kind == "j" and d.n in (1, 2):
            return 1 if d.n == 1 else 4
        if d.kind == "h" and d.n == 1 and field.coerce(d.lam) == -field.one:
            return 5
    return (dim - 1) ** 2 - 1


def blocks_of(text: str, field: Field) -> list[BlockDescriptor]:
    return [catalog.parse_descriptor(p, field) for p in text.split("+")]


def field_text(field: Field) -> str:
    return "Q" if field.kind == "Q" else f"GF:{field.p}"


# ---------------------------------------------------------------------------
# op-list workloads (cover-large, classify-scrambled)
# ---------------------------------------------------------------------------


@dataclass
class Op:
    label: str
    call: Callable[[], object]       # timed; returns a small answer
    check: Callable[[object], bool]  # untimed


class OpListWorkload(Workload):
    """A pass runs `self.ops` in order, each as one public library call."""

    def run_pass(self, tag=_no_tag):
        out = []
        for i, op in enumerate(self.ops):
            tag(i)
            t0 = perf_counter()
            try:
                answer = op.call()
            except Exception as exc:  # a raising op is a failed op, not a crash
                answer = Raised(exc)
            out.append((op.label, perf_counter() - t0, answer))
        return out

    def check(self, outcomes) -> list[bool]:
        return [not isinstance(answer, Raised) and _holds(lambda: op.check(answer))
                for op, (_, _, answer) in zip(self.ops, outcomes)]


def _memo(fn):
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]

    return get


def _algebra_ops(label: str, a, blocks, field: Field, calls) -> list[Op]:
    """Ops of one input algebra, with the paper's answers as ground truth."""
    dim = a.dim
    m_assoc = assoc_multiplier(blocks, dim)
    m_leib = leibniz_multiplier(blocks, field, dim)
    truth = forms.BlockDecomposition(field, blocks)
    center = _memo(lambda: algebra.center(a))
    where = f"{label} over {field}"
    table = {
        "is_extra_special": Op(
            f"is_extra_special {where}", lambda: algebra.is_extra_special(a), lambda r: r is True
        ),
        "multiplier_assoc": Op(
            f"multiplier_dim assoc {where}",
            lambda: cohomology.multiplier_dim(a, ASSOC),
            lambda r: r == m_assoc,
        ),
        "multiplier_leibniz": Op(
            f"multiplier_dim leibniz-left {where}",
            lambda: cohomology.multiplier_dim(a, LEIBNIZ),
            lambda r: r == m_leib,
        ),
        "cover": Op(
            f"cover {where}",
            lambda: _cover_shape(cohomology.cover(a)),
            lambda r: r == (dim + m_assoc, dim, m_assoc),
        ),
        "z_star": Op(f"z_star {where}", lambda: cohomology.z_star(a), lambda r: r == center()),
        "classify": Op(f"classify {where}", lambda: forms.classify(a), lambda r: r == truth),
    }
    return [table[c] for c in calls]


def _cover_shape(ext) -> tuple:
    return (ext.total.dim, ext.base_dim, ext.kernel.dim)


class CoverLarge(OpListWorkload):
    """Long ops on large canonical algebras: vectors of length dim^2.

    Every pass runs classify and both multipliers on all 18 inputs (dim 9
    to 19), and cover and z_star on the six inputs of dim <= 11 and on
    gamma:14 over GF(7), dim 15.  Cover and z_star of the other inputs of
    dim 15-19 take 0.8-3.6 s each, 45 s together; a pass with them would
    run once in a run, too few times to take each op's median latency over
    passes.  The seed picks the lambda of the first central sum and the
    op order.
    """

    CALLS = ("classify", "multiplier_assoc", "multiplier_leibniz", "cover", "z_star")
    MAX_COVER_DIM = 11
    LARGE_COVER = ("gamma:14", 7)

    def __init__(self, seed: int):
        rng = random.Random(seed)
        lam = rng.choice([2, 3, 5])
        texts = ["gamma:10", "gamma:14", "gamma:18", "j:10", "j:18", "h2n:4:2", "h2n:8:2",
                 f"gamma:8+h2n:4:{lam}", "j:9+gamma:8"]
        ops = []
        for field in (Q, Field.gf(7)):
            for text in texts:
                a = catalog.make_from_text(text, field)
                large = (text, field.p) == self.LARGE_COVER
                calls = self.CALLS if a.dim <= self.MAX_COVER_DIM or large else self.CALLS[:3]
                ops += _algebra_ops(text, a, blocks_of(text, field), field, calls)
        rng.shuffle(ops)
        self.ops = ops


def _lambda(rng: random.Random, field: Field, n: int):
    """A seeded lambda that the H block of index n accepts."""
    while True:
        lam = rng.choice([2, 3, 5, -2, -3]) if field.kind == "Q" else rng.randrange(2, field.p)
        try:
            BlockDescriptor("h", n, lam).validate(field)
        except InputError:
            continue
        return field.coerce(lam)


def scrambled_algebra(rng: random.Random, field: Field, blocks):
    """Algebra of P^T M P, M the form of the central sum, P in {-1,0,1}^(n x n)."""
    a = catalog.make_canonical(blocks[0], field)
    for d in blocks[1:]:
        a = catalog.central_sum(a, catalog.make_canonical(d, field))
    m = forms.form_of(a).m
    n = m.nrows
    while True:
        p = Matrix(field, [[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(n)])
        if p.rank() == n:
            break
    return forms.algebra_from_form(p.transpose().matmul(m).matmul(p))


class ClassifyScrambled(OpListWorkload):
    """Extra special algebras in an arbitrary basis: about 90 % of products nonzero.

    Each slot fixes the field and the block shape, because the cost of
    classification follows them.  Over GF(p) the seed picks the H lambdas
    and the scramble P; it also picks the op order.  Over Q the cost also
    follows P and the lambdas: the dim-12 shape takes 0.5-2 s to classify
    (up to 4 s seen) depending on them, enough to move a whole pass.  So
    each Q slot draws its lambdas and P from a seed of its own, the same
    for every run, and the Q inputs are the same whatever `--seed` is.
    Over GF(p) the root scan runs up
    to the largest root.  Every GF(10007) shape has a Gamma block of even
    size (cosquare eigenvalue -1 = p - 1) and, from dim 6, a J1 block
    (pencil root -1), so its scans run to the end whatever the lambdas are.
    The fourteen GF(100003) shapes are one Gamma block of size 2 and
    singular J blocks: one full scan each, 0.3-0.45 s.  With the dim-12
    classify over Q they are the fifteen slowest ops of a pass, so the tail
    (the 11th slowest op) is the fifth cheapest of them, inside the group
    and not at its edge, where one op's cost would set it.
    """

    SLOTS = (
        [(Q, shape) for shape in ("j:2 gamma:3 h2", "j:1 gamma:3 h2n:2", "j:3 gamma:2 h2 h2",
                                  "j:2 gamma:4 h2n:2", "j:1 gamma:2 h2 h2n:3")]
        + [(Field.gf(7), shape) for shape in ("j:1 gamma:2 h2 h2n:2", "j:2 gamma:4 h2 h2n:2",
                                              "j:5 gamma:2 h2n:2 h2n:2")]
        + [(Field.gf(10007), shape) for shape in ("gamma:2", "j:1 gamma:2 h2",
                                                  "j:1 gamma:2 h2n:2", "j:1 gamma:2 h2 h2n:3")]
        + [(Field.gf(100003), shape) for shape in (
            "gamma:2", "gamma:2 j:2", "gamma:2 j:3", "gamma:2 j:4", "gamma:2 j:5", "gamma:2 j:2 j:3",
            "gamma:2 j:2 j:4", "gamma:2 j:3 j:4", "gamma:2 j:2 j:5", "gamma:2 j:4 j:5",
            "gamma:2 j:3 j:5", "gamma:2 j:2 j:2", "gamma:2 j:3 j:3", "gamma:2 j:4 j:4")]
    )
    CALLS = ("is_extra_special", "classify", "multiplier_assoc", "multiplier_leibniz")

    def __init__(self, seed: int):
        rng = random.Random(seed)
        ops = []
        for index, (field, shape) in enumerate(self.SLOTS):
            # over Q the cost follows P itself, so each Q slot has a seed of its own
            slot_rng = random.Random(f"Q slot {index}") if field.kind == "Q" else rng
            blocks = [self._block(slot_rng, field, part) for part in shape.split()]
            a = scrambled_algebra(slot_rng, field, blocks)
            label = "scrambled " + forms.BlockDecomposition(field, blocks).text()
            ops.extend(_algebra_ops(label, a, blocks, field, self.CALLS))
        rng.shuffle(ops)
        self.ops = ops

    @staticmethod
    def _block(rng, field, part: str) -> BlockDescriptor:
        kind, _, n = part.partition(":")
        if kind == "h2":
            return BlockDescriptor("h", 1, _lambda(rng, field, 1))
        if kind == "h2n":
            return BlockDescriptor("h", int(n), _lambda(rng, field, int(n)))
        return BlockDescriptor(kind, int(n))


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def cli_main(argv) -> tuple[int, str]:
    """Exit code and stdout of `cli.main(argv)` run in this process."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = es_cli.main(argv)
    except SystemExit as exc:  # argparse rejects a command line with exit 2
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # what an uncaught exception does to a CLI process
        code = 1
    return code, buf.getvalue()


class _FirstRow(BaseException):
    """Stops a sweep at its first row; not an Exception, so rows cannot catch it."""


class Sweep(Workload):
    """One `verify-theorems` sweep per pass, through `cli.main`; one op per row.

    Row latency comes from wrapping `cli._sweep_row`, the function
    `verify_theorems` calls for each row, so work shared across a row's
    quantities stays inside the op.  The seed permutes the lambda list,
    which changes member order and the layout of every central sum but not
    the row count.
    """

    MAX_N = 8
    DIM_CAP = 7
    LAMBDAS = ["2", "3", "-1", "5"]

    def __init__(self, seed: int):
        lambdas = list(self.LAMBDAS)
        random.Random(seed).shuffle(lambdas)
        # "--lambdas=..." because argparse reads a list that starts with -1 as a flag
        self.argv = ["verify-theorems", "--max-n", str(self.MAX_N),
                     "--lambdas=" + ",".join(lambdas), "--dim-cap", str(self.DIM_CAP)]
        self._truth = {}

    @property
    def inputs(self) -> list[str]:
        return ["extraspecial " + " ".join(self.argv)]

    def _run_main(self, row_hook):
        inner = es_cli._sweep_row

        def timed_row(name, alg, descriptor, field):
            row_hook(name)
            t0 = perf_counter()
            try:
                row = inner(name, alg, descriptor, field)
            except Exception as exc:
                self._rows.append((name, perf_counter() - t0, Raised(exc)))
                raise
            self._rows.append((name, perf_counter() - t0, row))
            return row

        self._rows = []
        es_cli._sweep_row = timed_row
        try:
            return cli_main(self.argv)
        finally:
            es_cli._sweep_row = inner

    def until_first_op(self) -> None:
        def stop(name):
            raise _FirstRow

        try:
            self._run_main(stop)
        except _FirstRow:
            pass

    def run_pass(self, tag=_no_tag):
        count = [0]

        def hook(name):
            tag(count[0])
            count[0] += 1

        code, text = self._run_main(hook)
        try:
            payload = json.loads(text)
        except ValueError:
            payload = {}
        rows = payload.get("rows", [])
        out = []
        for i, (name, seconds, row) in enumerate(self._rows):
            shown = rows[i] if i < len(rows) else None
            out.append((name, seconds, (row, shown, code)))
        return out

    def _expected(self, name: str, dim: int) -> dict:
        if name not in self._truth:
            blocks = blocks_of(name, Q)
            self._truth[name] = {
                "status": "PASS",
                "multiplier_assoc": assoc_multiplier(blocks, dim),
                "multiplier_leibniz": leibniz_multiplier(blocks, Q, dim),
                "capable": blocks == [BlockDescriptor("j", 1)],
                "unicentral": blocks != [BlockDescriptor("j", 1)],
                "classify": forms.BlockDecomposition(Q, blocks).text(),
            }
        return self._truth[name]

    def check(self, outcomes) -> list[bool]:
        # exit code 1 is the documented code for a sweep with a failed row
        return [
            code in (0, 1)
            and not isinstance(row, Raised)
            and row.ok
            and isinstance(shown, dict)
            and shown.get("name") == name
            and _holds(lambda: all(shown.get(k) == v for k, v in
                                   self._expected(name, shown.get("dim", 0)).items()))
            for name, _, (row, shown, code) in outcomes
        ]


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

_EXIT_CODES = ((InputError, 2), (Unsupported, 3), (InternalCheckFailure, 4))


def _library_error(fn) -> tuple[int, dict]:
    """Exit code and error kind the documented CLI contract gives for fn's error."""
    try:
        fn()
    except tuple(cls for cls, _ in _EXIT_CODES) as exc:
        code = next(c for cls, c in _EXIT_CODES if isinstance(exc, cls))
        return code, {"kind": type(exc).__name__}
    return 0, {}


@dataclass
class CliOp:
    label: str
    argv: list[str]
    expected: Callable[[], tuple[int, dict]]  # library answer: exit code, payload fields
    save_cover_to: str | None = None


class Cli(Workload):
    """One fresh `python -m extraspecial` process per op, one after another.

    Three seeded documents of dimension 5 (Q), 6 (GF(7)) and 7 (Q) each go
    through make, invariants, both multipliers, classify, zstar and cover;
    the emitted cover documents (dimension 20, 30 and 42, not extra
    special) then go through `check --identity assoc` and invariants.  One
    diassoc check on an `embed_associative` document, one small
    verify-theorems and five inputs with documented refusals (exit 2 or 3)
    complete the pass.  Each answer must match the in-process library.

    With `in_process` set (the traced run), ops call `cli.main` in this
    process instead, so its layers can be split.
    """

    SLOTS = (
        (Q, ["gamma:4", "j:4", "h2n:2:{lam}", "j:2+h2:{lam}", "gamma:2+h2:{lam}"]),
        (Field.gf(7), ["gamma:5", "j:5", "j:2+gamma:3", "gamma:3+h2:{lam}", "j:1+h2n:2:{lam}"]),
        (Q, ["gamma:6", "j:6", "h2n:3:{lam}", "j:2+h2n:2:{lam}", "gamma:4+h2:{lam}"]),
    )

    def __init__(self, seed: int, in_process: bool = False):
        rng = random.Random(seed)
        self.in_process = in_process
        self.workdir = os.path.join(BENCH_DIR, ".work", f"cli-{os.getpid()}")
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.child_peak_kb = 0
        self._truth = {}
        self._covers = {}
        ops = []
        docs = []
        for slot, (field, choices) in enumerate(self.SLOTS):
            text = rng.choice(choices).format(lam=rng.choice([2, 3, 5]))
            a = catalog.make_from_text(text, field)
            path = self._write(f"doc{slot}.json", serialize.write_algebra(a))
            docs.append((text, field, a, path))
            ops.extend(self._doc_ops(slot, text, field, a, path))
        text0, _, a0, path0 = docs[0]
        d0 = dialg.embed_associative(a0)
        dpath = self._write("dialg.json", serialize.write_algebra(d0))
        ops.append(CliOp(
            f"check --identity diassoc embed({text0})", ["check", dpath, "--identity", "diassoc"],
            lambda: (0, {"holds": dialg.diassociativity_violation(d0) is None}),
        ))
        lams = rng.sample(["2", "3", "-1", "5"], 2)
        vt_argv = ["verify-theorems", "--max-n", "3", "--dim-cap", "5",
                   "--lambdas=" + ",".join(lams)]
        ops.append(CliOp(" ".join(vt_argv), vt_argv, lambda: _verify_truth(lams)))
        k = rng.choice([1, 2, 3])
        nonsplit = forms.algebra_from_form(Matrix(Q, [[1, k], [-k, 1]]))
        npath = self._write("nonsplit.json", serialize.write_algebra(nonsplit))
        bad = '{"field": {"kind": "Q"}, "dim": 3, "products": [[0, 1, 5, "1"]]}'
        bpath = self._write("malformed.json", bad)
        cover2 = os.path.join(self.workdir, "cover2.json")
        ops += [
            CliOp("make gamma:1 (refused)", ["make", "gamma:1"],
                  lambda: _library_error(lambda: catalog.make_from_text("gamma:1", Q))),
            CliOp("classify cover doc 2 (refused)", ["classify", cover2],
                  lambda: _library_error(
                      lambda: forms.classify(self._lib_cover(docs[2][2]).total))),
            CliOp(f"classify form [[1,{k}],[-{k},1]] (refused)", ["classify", npath],
                  lambda: _library_error(lambda: forms.classify(nonsplit))),
            CliOp("invariants malformed doc (refused)", ["invariants", bpath],
                  lambda: _library_error(lambda: serialize.parse_algebra(bad))),
            CliOp("check --identity diassoc on a plain doc (refused)",
                  ["check", path0, "--identity", "diassoc"],
                  lambda: (2, {"kind": "InputError"})),
        ]
        self.ops = ops

    def _write(self, name: str, text: str) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def _lib_cover(self, a):
        """The library's cover of `a`, computed once per run."""
        if id(a) not in self._covers:
            self._covers[id(a)] = cohomology.cover(a)
        return self._covers[id(a)]

    def _doc_ops(self, slot, text, field, a, path) -> list[CliOp]:
        ftext = field_text(field)
        cpath = os.path.join(self.workdir, f"cover{slot}.json")
        tag = f"{text} over {field}"

        def invariants(alg):
            return (0, {"dim": alg.dim, "center_dim": algebra.center(alg).dim,
                        "derived_dim": algebra.derived_ideal(alg).dim,
                        "extra_special": algebra.is_extra_special(alg)})

        def zstar():
            sub = cohomology.z_star(a)
            return (0, {"dim": sub.dim, "basis": [[field.format(x) for x in v] for v in sub.basis]})

        def cover():
            ext = self._lib_cover(a)
            return (0, {"base_dim": ext.base_dim, "kernel_dim": ext.kernel.dim,
                        "total": serialize.algebra_to_doc(ext.total)})

        def check_assoc():
            v = algebra.identity_violation(self._lib_cover(a).total, ASSOC)
            return (0, {"identity": "assoc", "holds": v is None,
                        "triple": None if v is None else list(v)})

        return [
            CliOp(f"make {tag}", ["make", text, "--field", ftext],
                  lambda: (0, serialize.algebra_to_doc(catalog.make_from_text(text, field)))),
            CliOp(f"invariants {tag}", ["invariants", path], lambda: invariants(a)),
            CliOp(f"multiplier assoc {tag}", ["multiplier", path, "--theory", "assoc"],
                  lambda: (0, {"multiplier_dim": cohomology.multiplier_dim(a, ASSOC)})),
            CliOp(f"multiplier leibniz {tag}", ["multiplier", path, "--theory", "leibniz"],
                  lambda: (0, {"multiplier_dim": cohomology.multiplier_dim(a, LEIBNIZ)})),
            CliOp(f"classify {tag}", ["classify", path],
                  lambda: (0, {"blocks": forms.classify(a).text()})),
            CliOp(f"zstar {tag}", ["zstar", path], zstar),
            CliOp(f"cover {tag}", ["cover", path], cover, save_cover_to=cpath),
            CliOp(f"check --identity assoc cover({tag})",
                  ["check", cpath, "--identity", "assoc"], check_assoc),
            CliOp(f"invariants cover({tag})", ["invariants", cpath],
                  lambda: invariants(self._lib_cover(a).total)),
        ]

    def _spawn(self, argv) -> tuple[int, str]:
        cmd = [sys.executable, "-m", "extraspecial", *argv]
        with open(os.path.join(self.workdir, "stderr.txt"), "wb") as err:
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                    stdout=subprocess.PIPE, stderr=err)
            with proc.stdout:
                out = proc.stdout.read()
            # wait4 reaps the child and returns its own peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_peak_kb = max(self.child_peak_kb, usage.ru_maxrss)
        return proc.returncode, out.decode("utf-8", "replace")

    def run_pass(self, tag=_no_tag):
        out = []
        for i, op in enumerate(self.ops):
            tag(i)
            t0 = perf_counter()
            code, text = (cli_main if self.in_process else self._spawn)(op.argv)
            seconds = perf_counter() - t0
            try:
                payload = json.loads(text)
            except ValueError:
                payload = None
            if op.save_cover_to:
                total = payload.get("total") if isinstance(payload, dict) else None
                with open(op.save_cover_to, "w", encoding="utf-8") as fh:
                    json.dump(total, fh)
            out.append((op.label, seconds, (code, payload)))
        return out

    def expected(self, op: CliOp) -> tuple[int, dict]:
        if op.label not in self._truth:
            self._truth[op.label] = op.expected()
        return self._truth[op.label]

    def check(self, outcomes) -> list[bool]:
        def matches(op, code, payload):
            want_code, fields = self.expected(op)
            return (code == want_code and isinstance(payload, dict)
                    and all(payload.get(k) == v for k, v in fields.items()))

        return [_holds(lambda: matches(op, code, payload))
                for op, (_, _, (code, payload)) in zip(self.ops, outcomes)]

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def _verify_truth(lams) -> tuple[int, dict]:
    rows = es_cli.verify_theorems(3, [Q.parse(x) for x in lams], Q, 5)
    fails = sum(1 for r in rows if not r.ok)
    return (1 if fails else 0), {"fail_count": fails, "pass": not fails}


WORKLOADS = {
    "sweep": Sweep,
    "cover-large": CoverLarge,
    "classify-scrambled": ClassifyScrambled,
    "cli": Cli,
}


def build(name: str, seed: int, trace: bool = False):
    if name == "cli":
        return Cli(seed, in_process=trace)
    return WORKLOADS[name](seed)
