"""Byte-identity guard: CLI payloads must not change under refactors.

Each case runs one command through `cli.main` and hashes its exit code and
stdout.  The digests in `golden_cli.json` were captured from a known-good
build; a change of representation that reorders a basis (the cover payload
depends on which cocycles complement the coboundaries) or reformats a
number shows up here as a mismatch.

Regenerate the digests, after checking that a payload change is intended:

    PYTHONPATH=src python tests/test_golden.py > tests/golden_cli.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile

import pytest

from extraspecial.catalog import make_from_text
from extraspecial.cli import main
from extraspecial.dialg import embed_associative
from extraspecial.forms import algebra_from_form, form_of
from extraspecial.linalg import Matrix
from extraspecial.scalars import Field
from extraspecial.serialize import write_algebra

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")

SWEEPS = {
    "verify Q max-n 5 dim-cap 7": ["verify-theorems", "--max-n", "5", "--dim-cap", "7"],
    "verify GF(7) max-n 4 dim-cap 6": [
        "verify-theorems", "--max-n", "4", "--dim-cap", "6", "--field", "GF:7",
    ],
}

# (field flag, central sum); GF(3) and GF(5) include shapes with p <= dim
SHAPES = [
    ("Q", "j:2+h2:3"),
    ("Q", "gamma:3+j:1"),
    ("Q", "j:3+gamma:2"),
    ("GF:7", "j:2+h2:3"),
    ("GF:7", "gamma:2+h2n:2:3"),
    ("GF:3", "j:2+gamma:2"),
    ("GF:3", "h2:2+j:1"),
    ("GF:5", "gamma:3+j:2"),
    ("GF:5", "j:1+h2:2+j:2"),
]
# each command is run on every single-product document; the argv after the
# document path is the rest of the tuple
COMMANDS = (
    ("zstar",),
    ("cover",),
    ("classify",),
    ("invariants",),
    ("check", "--identity", "assoc"),
    ("check", "--identity", "leibniz-left"),
    ("check", "--identity", "leibniz-right"),
    ("multiplier", "--theory", "assoc"),
    ("multiplier", "--theory", "leibniz"),
    ("capable",),
    ("unicentral",),
)
DIASSOC = ("check", "--identity", "diassoc")

# `make` is run on every shape above and on these single blocks over Q
MAKES = [*SHAPES, ("Q", "j:1"), ("Q", "gamma:4"), ("Q", "h2:-1"), ("Q", "h2n:3:2")]

# x*y = x is not associative: its assoc cocycle solve fails the coboundary
# audit, so multiplier names the violating triple and cover and zstar refuse
# it, and classify refuses it as not extra special; x*x = y, x*y = z breaks
# only the left Leibniz identity
ERROR_DOCS = {
    "not associative": {
        "field": {"kind": "Q"}, "dim": 2, "basis": ["e1", "e2"],
        "products": [[0, 1, 0, "1"]],
    },
    "leibniz-left breaker": {
        "field": {"kind": "Q"}, "dim": 3, "basis": ["x", "y", "z"],
        "products": [[0, 0, 1, "1"], [0, 1, 2, "1"]],
    },
}

# a document with an explicit "0" coefficient (alone in (1, 1), beside a
# nonzero entry in (0, 1)) and integer coefficients; read only by the
# commands of `SPARSE_COMMANDS`
SPARSE_INPUT = "explicit zero and integer coefficients"
SPARSE_DOC = {
    "field": {"kind": "Q"}, "dim": 3, "basis": ["x", "y", "z"],
    "products": [[0, 1, 0, "0"], [0, 1, 2, "1"], [1, 0, 2, -1], [1, 1, 2, "0"], [0, 0, 2, 2]],
}
SPARSE_COMMANDS = (("invariants",), ("cover",))

# run only through `classify`: forms whose pencil does not split (three 2x2
# rotations, and J3 beside one: a singular pencil), then shapes that mix odd
# J >= 3 with Gamma and H blocks, each canonical and scrambled
CLASSIFY = ("classify",)
NONSPLIT_FORMS = {
    "nonsplit Q [[1,1],[-1,1]]": ("Q", [[1, 1], [-1, 1]]),
    "nonsplit Q [[1,2],[-2,1]]": ("Q", [[1, 2], [-2, 1]]),
    "nonsplit GF:7 [[1,1],[-1,1]]": ("GF:7", [[1, 1], [-1, 1]]),
    "nonsplit Q j:3 beside [[1,1],[-1,1]]": (
        "Q", [[0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 1, 1], [0, 0, 0, -1, 1]],
    ),
}
ODD_J_SHAPES = [
    ("Q", "j:3+gamma:2+h2:3"),
    ("Q", "j:5+gamma:2+h2:-2"),
    ("GF:3", "j:3+gamma:2+h2:2"),
    ("GF:5", "j:3+j:2+gamma:3+h2:2"),
    ("GF:10007", "j:3+gamma:4+h2:5"),
]
ODD_J_DOCS = [f"{flag} {shape}{tag}" for flag, shape in ODD_J_SHAPES for tag in ("", " scrambled")]

# dialgebra documents, run only through `check --identity diassoc`: the
# embedded j:3 (built in `_documents`) holds, the broken one fails an axiom
EMBEDDED = "dialgebra embedded j:3"
DIALGEBRA_DOCS = {
    "dialgebra broken": {
        "field": {"kind": "Q"}, "dim": 3, "basis": ["x", "y", "z"],
        "products": [[0, 1, 2, "1"]],
        "right_products": [[1, 1, 0, "1"]],
    },
}


def _field(flag: str) -> Field:
    return Field.rationals() if flag == "Q" else Field.gf(int(flag.split(":")[1]))


def _scrambled(flag: str, shape: str):
    """The shape's algebra with its form replaced by a seeded P^T M P."""
    field = _field(flag)
    m = form_of(make_from_text(shape, field)).m
    n = m.nrows
    rng = random.Random(f"golden {flag} {shape}")
    while True:
        p = Matrix(field, [[rng.choice((-1, 0, 1, 2)) for _ in range(n)] for _ in range(n)])
        if p.rank() == n:
            return algebra_from_form(p.transpose().matmul(m).matmul(p))


def _documents() -> dict:
    docs = {}
    for flag, shape in SHAPES + ODD_J_SHAPES:
        field = _field(flag)
        docs[f"{flag} {shape}"] = write_algebra(make_from_text(shape, field))
        docs[f"{flag} {shape} scrambled"] = write_algebra(_scrambled(flag, shape))
    for name, doc in {**ERROR_DOCS, **DIALGEBRA_DOCS}.items():
        docs[name] = json.dumps(doc)
    docs[SPARSE_INPUT] = json.dumps(SPARSE_DOC)
    for name, (flag, rows) in NONSPLIT_FORMS.items():
        docs[name] = write_algebra(algebra_from_form(Matrix(_field(flag), rows)))
    docs[EMBEDDED] = write_algebra(embed_associative(make_from_text("j:3", Field.rationals())))
    return docs


def _commands(name: str):
    if name == SPARSE_INPUT:
        return SPARSE_COMMANDS
    if name in NONSPLIT_FORMS or name in ODD_J_DOCS:
        return (CLASSIFY,)
    return (DIASSOC,) if name == EMBEDDED or name in DIALGEBRA_DOCS else COMMANDS


DOC_NAMES = [f"{flag} {shape}{tag}" for flag, shape in SHAPES for tag in ("", " scrambled")]
DOC_NAMES += [*ERROR_DOCS, *DIALGEBRA_DOCS, EMBEDDED, SPARSE_INPUT, *NONSPLIT_FORMS, *ODD_J_DOCS]
MAKE_CASES = {f"make {shape} --field {flag}": ["make", shape, "--field", flag] for flag, shape in MAKES}
CASE_IDS = sorted(
    [*SWEEPS, *MAKE_CASES, *(f"{' '.join(c)} {d}" for d in DOC_NAMES for c in _commands(d))]
)


def _cases(directory: str) -> dict:
    """Case id -> argv, writing the documents the cases read into `directory`."""
    cases = {**SWEEPS, **MAKE_CASES}
    for index, (name, text) in enumerate(sorted(_documents().items())):
        path = os.path.join(directory, f"doc{index}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for command in _commands(name):
            cases[f"{' '.join(command)} {name}"] = [command[0], path, *command[1:]]
    return cases


def _digest(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


@pytest.fixture(scope="module")
def cases(tmp_path_factory):
    return _cases(str(tmp_path_factory.mktemp("golden")))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == CASE_IDS


@pytest.mark.parametrize("case", CASE_IDS)
def test_cli_payload_is_byte_identical(golden, cases, case):
    assert _digest(cases[case]) == golden[case], case


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        digests = {case: _digest(argv) for case, argv in sorted(_cases(directory).items())}
    json.dump({"digests": digests}, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
