"""Command-line interface and the theorem-verification sweep.

Every command prints a single JSON object on stdout.  Exit codes separate
"computed" from "failed": 0 means the computation ran (boolean answers live
in the payload), 2 flags bad input (a malformed command line included), 3
flags an honest refusal over the base field, 4 flags an internal self-check
failure, 5 flags an unexpected error (its traceback goes to stderr) or a
stdout closed before start-up or before the payload was written (its JSON
error line goes to stderr), and `verify-theorems` exits 1 when any row
disagrees with the paper; the first row that raises sets the exit code of
its exception instead.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from collections import namedtuple

# `catalog`, `forms` and `dialg` are imported by the handlers that use them,
# so a process loads only the modules its command runs
from .algebra import Algebra, IdentityKind, center, derived_ideal, extra_special_center, identity_violation
from .cohomology import VALIDATED_LEIBNIZ, associative_cocycle_space, cocycle_z_star, cover, multiplier_dim
from .cohomology import is_capable, is_unicentral, z_star
from .errors import InputError, InternalCheckFailure, ParseError, Unsupported
from .scalars import Field
from .serialize import algebra_to_doc, parse_algebra

def _parse_field_flag(text: str) -> Field:
    text = text.strip()
    if text.upper() == "Q":
        return Field.rationals()
    if text.upper().startswith("GF:"):
        try:
            p = int(text.split(":", 1)[1])
        except ValueError:
            raise InputError(f"cannot parse field {text!r}; use Q or GF:p") from None
        return Field.gf(p)
    raise InputError(f"cannot parse field {text!r}; use Q or GF:p")


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason}", f"byte {exc.start}") from exc
    return parse_algebra(text)


def _load_plain_algebra(path: str) -> Algebra:
    obj = _load(path)
    if not isinstance(obj, Algebra):  # a `Dialgebra`
        raise InputError("this command needs a single-product algebra document")
    return obj


# ---------------------------------------------------------------------------
# theorem sweep
# ---------------------------------------------------------------------------


class SweepRow(namedtuple("SweepRow", "name dim ok detail raised", defaults=(None,))):
    """One sweep row: `detail` is its payload, `raised` the exception a failed row raised."""

    __slots__ = ()


def _sweep_members(field: Field, max_n: int, lambdas):
    from .catalog import BlockDescriptor

    members = [(BlockDescriptor("j", 1), "j:1")]
    for n in range(2, max_n + 1):
        members.append((BlockDescriptor("j", n), f"j:{n}"))
    for n in range(2, max_n + 1):
        members.append((BlockDescriptor("gamma", n), f"gamma:{n}"))
    one = field.one
    # lambdas naming the same field element (2, -1 and 5 over GF(3)) give one row
    lambdas = list(dict.fromkeys(map(field.coerce, lambdas)))
    for lam in lambdas:
        if lam and lam != one:
            members.append((BlockDescriptor("h", 1, lam), f"h2:{field.format(lam)}"))
    for n in range(2, max_n // 2 + 1):
        bad = one if (n + 1) % 2 == 0 else -one
        for lam in lambdas:
            if lam and lam != bad:
                members.append(
                    (BlockDescriptor("h", n, lam), f"h2n:{n}:{field.format(lam)}")
                )
    return members


def _leibniz_expected(d, field: Field, dim: int) -> int:
    base = (dim - 1) ** 2 - 1
    if d is None:
        return base
    if d.kind == "j" and d.n == 1:
        return 1
    if d.kind == "j" and d.n == 2:
        return 4
    if d.kind == "h" and d.n == 1 and field.coerce(d.lam) == -field.one:
        return 5
    return base


def verify_theorems(max_n: int, lambdas, field: Field | None = None, pair_dim_cap: int = 11):
    """Check multiplier dimensions, capability, and classification round trips.

    Runs every catalog member with index up to `max_n` (H2n families up to
    max_n // 2, so dimensions stay comparable) plus every pairwise central
    sum of total dimension at most `pair_dim_cap`.  Returns a list of
    `SweepRow`; a row fails when any of its checked quantities disagrees
    with the predicted value, and errors are reported per row instead of
    aborting the sweep.
    """
    from .catalog import central_sum, make_canonical

    if max_n < 2:
        raise InputError("verify-theorems needs max_n >= 2")
    field = field or Field.rationals()
    members = _sweep_members(field, max_n, lambdas)
    singles = [(name, make_canonical(d, field), d) for d, name in members]
    instances = list(singles)
    for i, (n1, a, d1) in enumerate(singles):
        for n2, b, d2 in singles[i:]:
            if d1.algebra_dim + d2.algebra_dim - 1 <= pair_dim_cap:
                instances.append((f"{n1}+{n2}", central_sum(a, b), None))
    rows = []
    for name, alg, descriptor in instances:
        try:
            rows.append(_sweep_row(name, alg, descriptor, field))
        except Exception as exc:  # row-level containment, never abort the sweep
            rows.append(SweepRow(name, alg.dim, False, {"error": f"{type(exc).__name__}: {exc}"}, exc))
    return rows


def _sweep_row(name: str, alg: Algebra, descriptor, field: Field) -> SweepRow:
    from .catalog import parse_descriptor
    from .forms import BlockDecomposition, classify

    dim = alg.dim
    is_j1 = descriptor is not None and descriptor.kind == "j" and descriptor.n == 1
    predicted = 1 if is_j1 else (dim - 1) ** 2 - 1
    # one assoc cocycle space per row: it holds the assoc multiplier and Z*,
    # from which capability and unicentrality are both read
    cs = associative_cocycle_space(alg)
    m_assoc = cs.h2_dim
    m_leib = multiplier_dim(alg, VALIDATED_LEIBNIZ)
    leib_predicted = _leibniz_expected(descriptor, field, dim)
    z = center(alg)
    zs = cocycle_z_star(alg, cs, z)
    capable = zs.dim == 0
    unicentral = zs == z
    decomposition = classify(alg, z)
    if descriptor is not None:
        classify_ok = decomposition == BlockDecomposition(field, [descriptor])
    else:
        # sums: the decomposition must be the multiset union of the part names
        parts = [parse_descriptor(p, field) for p in name.split("+")]
        classify_ok = decomposition == BlockDecomposition(field, parts)
    ok = (
        m_assoc == predicted
        and m_leib == leib_predicted
        and capable == is_j1
        and unicentral == (not is_j1)
        and classify_ok
    )
    return SweepRow(
        name,
        dim,
        ok,
        {
            "multiplier_assoc": m_assoc,
            "predicted": predicted,
            "multiplier_leibniz": m_leib,
            "predicted_leibniz": leib_predicted,
            "capable": capable,
            "unicentral": unicentral,
            "classify": decomposition.text(),
            "classify_ok": classify_ok,
        },
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_make(args) -> dict:
    from .catalog import make_from_text

    field = _parse_field_flag(args.field)
    algebra = make_from_text(args.descriptor, field)
    return algebra_to_doc(algebra)


def _cmd_check(args) -> dict:
    obj = _load(args.file)
    if args.identity == "diassoc":
        if isinstance(obj, Algebra):
            raise InputError("diassoc check needs a dialgebra document")
        from .dialg import diassociativity_violation

        violation = diassociativity_violation(obj)
        return {
            "identity": "diassoc",
            "holds": violation is None,
            "axiom": None if violation is None else violation[0],
            "triple": None if violation is None else list(violation[1]),
        }
    if not isinstance(obj, Algebra):
        raise InputError("single-product identity check needs an algebra document")
    violation = identity_violation(obj, IdentityKind(args.identity))
    return {
        "identity": args.identity,
        "holds": violation is None,
        "triple": None if violation is None else list(violation),
    }


def _cmd_invariants(args) -> dict:
    alg = _load_plain_algebra(args.file)
    z, d = center(alg), derived_ideal(alg)
    return {
        "dim": alg.dim,
        "center_dim": z.dim,
        "derived_dim": d.dim,
        "extra_special": extra_special_center(alg, z, d) is not None,
    }


def _cmd_multiplier(args) -> dict:
    alg = _load_plain_algebra(args.file)
    theory = IdentityKind.ASSOCIATIVE if args.theory == "assoc" else VALIDATED_LEIBNIZ
    return {"theory": args.theory, "multiplier_dim": multiplier_dim(alg, theory)}


def _cmd_cover(args) -> dict:
    alg = _load_plain_algebra(args.file)
    ext = cover(alg)
    return {
        "total": algebra_to_doc(ext.total),
        "base_dim": ext.base_dim,
        "kernel_dim": ext.kernel.dim,
    }


def _cmd_zstar(args) -> dict:
    alg = _load_plain_algebra(args.file)
    sub = z_star(alg)
    return {
        "dim": sub.dim,
        "basis": [[alg.field.format(x) for x in v] for v in sub.basis],
    }


def _cmd_capable(args) -> dict:
    return {"capable": is_capable(_load_plain_algebra(args.file))}


def _cmd_unicentral(args) -> dict:
    return {"unicentral": is_unicentral(_load_plain_algebra(args.file))}


def _cmd_classify(args) -> dict:
    from .forms import classify

    alg = _load_plain_algebra(args.file)
    decomposition = classify(alg)
    return {
        "blocks": decomposition.text(),
        "block_list": [d.text(alg.field) for d in decomposition.blocks],
    }


def _cmd_verify(args) -> tuple[dict, int]:
    field = _parse_field_flag(args.field)
    lambdas = [field.parse(part) for part in args.lambdas.split(",") if part.strip()]
    rows = verify_theorems(args.max_n, lambdas, field, args.dim_cap)
    fails = [r for r in rows if not r.ok]
    payload = {
        "rows": [
            {"name": r.name, "dim": r.dim, "status": "PASS" if r.ok else "FAIL", **r.detail}
            for r in rows
        ],
        "fail_count": len(fails),
        "pass": not fails,
    }
    raised = next((r.raised for r in rows if r.raised), None)
    return payload, (1 if fails else 0) if raised is None else _exit_code(raised)


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a malformed command line as `InputError`, so it prints JSON.

    Subparsers are built from the parser's own class and inherit this.
    """

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="extraspecial",
        description="Extra special algebra toolkit: canonical families, invariants, "
        "Schur multipliers, covers, capability, and classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make", help="build a canonical algebra or central sum")
    p.add_argument("descriptor", help="e.g. j:2, gamma:3, h2:3/2, h2n:2:5, j:2+h2:3")
    p.add_argument("--field", default="Q", help="Q (default) or GF:p")

    p = sub.add_parser("check", help="identity check with first violating triple")
    p.add_argument("file")
    p.add_argument(
        "--identity",
        required=True,
        choices=[kind.value for kind in IdentityKind] + ["diassoc"],
    )

    p = sub.add_parser("invariants", help="center/derived dimensions, extra special flag")
    p.add_argument("file")

    p = sub.add_parser("multiplier", help="Schur multiplier dimension")
    p.add_argument("file")
    p.add_argument("--theory", default="assoc", choices=["assoc", "leibniz"])

    p = sub.add_parser("cover", help="maximal stem extension")
    p.add_argument("file")

    p = sub.add_parser("zstar", help="projected center of the cover")
    p.add_argument("file")

    p = sub.add_parser("capable", help="is the algebra a central quotient K/Z(K)?")
    p.add_argument("file")

    p = sub.add_parser("unicentral", help="does Z* equal the center?")
    p.add_argument("file")

    p = sub.add_parser("classify", help="canonical central-sum block decomposition")
    p.add_argument("file")

    p = sub.add_parser("verify-theorems", help="multiplier/capability/classification sweep")
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    p.add_argument("--lambdas", default="2,3,-1,5")
    p.add_argument("--field", default="Q")
    p.add_argument("--dim-cap", type=int, default=11, dest="dim_cap")

    return parser


_COMMANDS = {
    "make": _cmd_make,
    "check": _cmd_check,
    "invariants": _cmd_invariants,
    "multiplier": _cmd_multiplier,
    "cover": _cmd_cover,
    "zstar": _cmd_zstar,
    "capable": _cmd_capable,
    "unicentral": _cmd_unicentral,
    "classify": _cmd_classify,
}


#: exit code of each package error class; any other exception exits 5
_EXIT_CODES = ((InputError, 2), (Unsupported, 3), (InternalCheckFailure, 4))


def _exit_code(exc: Exception) -> int:
    code = next((c for cls, c in _EXIT_CODES if isinstance(exc, cls)), 5)
    if code == 5:  # a bug or a resource limit; never a bare traceback
        import traceback  # imported here: it costs every process ~4 ms of start-up

        traceback.print_exception(exc, file=sys.stderr)
    return code


def _error_line(exc: Exception) -> str:
    return json.dumps({"error": str(exc), "kind": type(exc).__name__})


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "verify-theorems":
            payload, code = _cmd_verify(args)
        else:
            payload, code = _COMMANDS[args.command](args), 0
        text = json.dumps(payload, indent=2)
    except Exception as exc:
        code = _exit_code(exc)
        text = _error_line(exc)
    if sys.stdout is None:  # fd 1 was closed before start-up: the payload is lost
        print(_error_line(OSError(errno.EBADF, "stdout is closed")), file=sys.stderr)
        return 5
    try:
        print(text, flush=True)
    except BrokenPipeError as exc:
        # the reader closed stdout: say so on stderr, and point stdout at
        # devnull so the interpreter's final flush has nothing to complain of
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(_error_line(exc), file=sys.stderr)
        return 5
    return code


if __name__ == "__main__":
    sys.exit(main())
