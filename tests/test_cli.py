"""Command-line behavior: payloads, exit codes, and the verification sweep."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time

import pytest

import extraspecial
from extraspecial import cli, forms
from extraspecial.catalog import parse_descriptor
from extraspecial.cli import main, verify_theorems
from extraspecial.errors import InternalCheckFailure
from extraspecial.forms import BlockDecomposition
from extraspecial.scalars import Field
from memo_misses import counting_memo

Q = Field.rationals()


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def make_file(tmp_path, capsys, descriptor, name="alg.json"):
    code = main(["make", descriptor])
    text = capsys.readouterr().out
    assert code == 0
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_make_j2(capsys):
    code, doc = run(capsys, "make", "j:2")
    assert code == 0
    assert doc["dim"] == 3
    assert doc["products"] == [[0, 1, 2, "1"]]


def test_make_over_gf(capsys):
    code, doc = run(capsys, "make", "h2:3", "--field", "GF:7")
    assert code == 0
    assert doc["field"] == {"kind": "GF", "p": 7}


def test_make_over_large_prime_fields(capsys):
    code, doc = run(capsys, "make", "j:2", "--field", "GF:2305843009213693951")
    assert code == 0
    assert doc["field"] == {"kind": "GF", "p": 2**61 - 1}
    code, doc = run(capsys, "make", "j:2", "--field", f"GF:{2**89 - 1}")
    assert code == 2
    assert doc["kind"] == "UnsupportedField"


def test_make_bad_descriptor_exits_2(capsys):
    code = main(["make", "h2:1"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("flag", ["GF:1.5", "GF:x"])
def test_make_unparsable_field_exits_2(capsys, flag):
    code, doc = run(capsys, "make", "j:2", "--field", flag)
    assert code == 2
    assert doc["kind"] == "InputError"


@pytest.mark.parametrize(
    "argv",
    [["classify"], ["verify-theorems", "--max-n", "2", "--lambdas", "-1,2"], ["nonsense"]],
)
def test_malformed_command_line_exits_2_with_json(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    doc = json.loads(captured.out)
    assert doc["kind"] == "InputError" and doc["error"].startswith("extraspecial")
    assert captured.err == ""


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: extraspecial" in capsys.readouterr().out


def test_unexpected_error_exits_5_with_json(tmp_path, capsys, monkeypatch):
    # an exception outside the package's own hierarchy is a bug, not bad input
    path = make_file(tmp_path, capsys, "h2:3")

    def broken(*args):
        raise RuntimeError("planted failure")

    monkeypatch.setattr(forms, "pencil_minor", broken)
    code = main(["classify", path])
    captured = capsys.readouterr()
    assert code == 5
    assert json.loads(captured.out) == {"error": "planted failure", "kind": "RuntimeError"}
    assert "Traceback" in captured.err


@pytest.mark.parametrize(
    "argv", [["make", "j:2"], ["verify-theorems", "--max-n", "2", "--dim-cap", "3"]]
)
def test_closed_stdout_exits_5_with_json_on_stderr(argv):
    # the reader closes the pipe before the process has written anything
    src = os.path.dirname(os.path.dirname(os.path.abspath(extraspecial.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.Popen(
        [sys.executable, "-m", "extraspecial", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 5
    assert "Traceback" not in err and "Exception ignored" not in err
    (line,) = err.splitlines()
    report = json.loads(line)
    assert sorted(report) == ["error", "kind"] and report["kind"] == "BrokenPipeError"


def test_closed_fd_1_exits_5_with_json_on_stderr():
    # fd 1 closed before start-up: sys.stdout is None, so nothing could be written
    src = os.path.dirname(os.path.dirname(os.path.abspath(extraspecial.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        ["sh", "-c", 'exec "$0" -m extraspecial make j:2 >&-', sys.executable],
        stderr=subprocess.PIPE, env=env, timeout=60,
    )
    assert proc.returncode == 5
    (line,) = proc.stderr.decode().splitlines()
    report = json.loads(line)
    assert sorted(report) == ["error", "kind"] and report["kind"] == "OSError"


# runs the CLI with its arguments in a child whose address space is capped at 512 MB
LIMITED_CLI = """import resource, runpy
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
runpy.run_module("extraspecial", run_name="__main__")
"""


@pytest.mark.parametrize("command,dim,products,code,payload", [
    ("multiplier", 100_000, [], 0, {"theory": "assoc", "multiplier_dim": 10_000_000_000}),
    ("zstar", 2_000, [], 0, {"dim": 0, "basis": []}),
    ("multiplier", 100_000, [[0, 1, 0, "1"]], 2,
     {"error": "algebra does not satisfy assoc at (0, 1, 1)", "kind": "IdentityViolated"}),
], ids=["multiplier-zero", "zstar-zero", "multiplier-nonassociative"])
def test_a_large_zero_algebra_stays_cheap(tmp_path, command, dim, products, code, payload):
    # a 50-byte document must not cost its dim^2 cocycles: the multiplier is a
    # rank, and Z* a reduction modulo the (here empty) constraint echelon.  With
    # x1 x2 = x1 the coboundary audit fails, and only then is the identity walked
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"field": {"kind": "Q"}, "dim": dim, "products": products}))
    src = os.path.dirname(os.path.dirname(os.path.abspath(extraspecial.__file__)))
    proc = subprocess.run([sys.executable, "-c", LIMITED_CLI, command, str(path)],
                          capture_output=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (proc.returncode, json.loads(proc.stdout)) == (code, payload), proc.stderr.decode()[-400:]


def test_check_identity(tmp_path, capsys):
    path = make_file(tmp_path, capsys, "gamma:3")
    code, doc = run(capsys, "check", path, "--identity", "assoc")
    assert code == 0
    assert doc["holds"] is True and doc["triple"] is None


def test_invariants(tmp_path, capsys):
    path = make_file(tmp_path, capsys, "j:2+h2:3")
    code, doc = run(capsys, "invariants", path)
    assert code == 0
    assert doc == {"dim": 5, "center_dim": 1, "derived_dim": 1, "extra_special": True}


def test_invariants_solves_the_center_and_derived_ideal_once(tmp_path, capsys, monkeypatch):
    # the command reads the center and A^2 twice each, once itself and once in
    # extra_special_center; the loaded algebra solves each once and holds it
    memos = []
    load = cli._load_plain_algebra

    def counted(path):
        a = load(path)
        memos.append(counting_memo(a))
        return a

    monkeypatch.setattr(cli, "_load_plain_algebra", counted)
    zero = tmp_path / "zero.json"
    zero.write_text('{"field": {"kind": "Q"}, "dim": 2, "products": []}')
    cases = [("j:2+h2:3", True), ("gamma:4", True), (str(zero), False)]
    for source, extra_special in cases:
        path = make_file(tmp_path, capsys, source) if extra_special else source
        memos.clear()
        code, doc = run(capsys, "invariants", path)
        assert code == 0 and doc["extra_special"] is extra_special
        (memo,) = memos
        assert memo.misses["center"] == memo.misses["derived_ideal"] == 1


def test_multiplier_both_theories(tmp_path, capsys):
    path = make_file(tmp_path, capsys, "j:2")
    code, doc = run(capsys, "multiplier", path, "--theory", "assoc")
    assert (code, doc["multiplier_dim"]) == (0, 3)
    code, doc = run(capsys, "multiplier", path, "--theory", "leibniz")
    assert (code, doc["multiplier_dim"]) == (0, 4)


def test_cover_and_zstar(tmp_path, capsys):
    path = make_file(tmp_path, capsys, "j:1")
    code, doc = run(capsys, "cover", path)
    assert code == 0
    assert doc["kernel_dim"] == 1 and doc["total"]["dim"] == 3
    code, doc = run(capsys, "zstar", path)
    assert code == 0 and doc["dim"] == 0
    code, doc = run(capsys, "capable", path)
    assert code == 0 and doc["capable"] is True
    code, doc = run(capsys, "unicentral", path)
    assert code == 0 and doc["unicentral"] is False


def test_classify_command(tmp_path, capsys):
    path = make_file(tmp_path, capsys, "gamma:3+j:2")
    code, doc = run(capsys, "classify", path)
    assert code == 0
    assert doc["blocks"] == "j:2+gamma:3"


@pytest.mark.parametrize(
    "descriptor,field",
    [
        ("h2:1000000000039", "Q"),
        ("h2:98765432109876543211/12345678901234567891", "Q"),
        ("h2:3", "GF:1000003"),
        ("j:3+h2:-12345678901234567890", "Q"),
    ],
)
def test_classify_large_lambdas_round_trip(tmp_path, capsys, descriptor, field):
    code = main(["make", descriptor, "--field", field])
    path = tmp_path / "alg.json"
    path.write_text(capsys.readouterr().out)
    assert code == 0
    code, doc = run(capsys, "classify", str(path))
    assert code == 0
    f = Q if field == "Q" else Field.gf(int(field.split(":")[1]))
    assert doc["blocks"] == BlockDecomposition(
        f, [parse_descriptor(part, f) for part in descriptor.split("+")]
    ).text()


def test_classify_unsupported_exits_3(tmp_path, capsys):
    doc = {
        "field": {"kind": "Q"},
        "dim": 3,
        "products": [[0, 0, 2, "1"], [0, 1, 2, "1"], [1, 0, 2, "-1"], [1, 1, 2, "1"]],
    }
    path = tmp_path / "nosplit.json"
    path.write_text(json.dumps(doc))
    code = main(["classify", str(path)])
    capsys.readouterr()
    assert code == 3


def test_parse_error_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{")
    code = main(["invariants", str(path)])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize(
    "content",
    [("[" * 100_000 + "]" * 100_000).encode(), b"\xff\xfe"],
    ids=["nested-past-the-recursion-limit", "not-utf-8"],
)
def test_malformed_document_exits_2_without_a_traceback(tmp_path, capsys, content):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    code = main(["invariants", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    payload = json.loads(captured.out)
    assert sorted(payload) == ["error", "kind"] and payload["kind"] == "ParseError"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "doc",
    [
        '{"field": {"kind": "Q"}, "dim": true, "products": []}',
        '{"field": {"kind": "GF", "p": true}, "dim": 2, "products": []}',
        '{"field": {"kind": "Q"}, "dim": 3, "products": [[0, true, 2, "1"]]}',
        '{"field": {"kind": "Q"}, "dim": 3, "products": [[false, 1, 2, "1"]]}',
        '{"field": {"kind": "Q"}, "dim": 3, "products": [[0, 1, 2, true]]}',
    ],
    ids=["dim", "p", "index", "index-false", "coefficient"],
)
def test_json_booleans_are_not_integers(tmp_path, capsys, doc):
    path = tmp_path / "bool.json"
    path.write_text(doc)
    code, payload = run(capsys, "invariants", str(path))
    assert code == 2
    assert payload["kind"] == "ParseError"


# a Q scalar is "n" or "n/d" of integers; reading an exponent would build
# 10^10000000 before anything could refuse it
@pytest.mark.parametrize("scalar", ["1e10000000", "2.5"])
@pytest.mark.parametrize("where", ["make", "lambdas", "document"])
def test_scalar_that_is_not_an_integer_quotient_exits_2_at_once(tmp_path, capsys, where, scalar):
    if where == "make":
        argv = ["make", f"h2:{scalar}"]
    elif where == "lambdas":
        argv = ["verify-theorems", "--max-n", "2", "--lambdas", f"2,{scalar}"]
    else:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"field": {"kind": "Q"}, "dim": 3, "products": [[0, 1, 2, scalar]]}))
        argv = ["classify", str(path)]
    start = time.perf_counter()
    code, payload = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert payload["kind"] == "UnsupportedField"


def test_refusal_of_a_long_scalar_echoes_a_bounded_prefix(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"field": {"kind": "Q"}, "dim": 3, "products": [[0, 1, 2, "1" * 200_000]]}))
    code = main(["classify", str(path)])
    out = capsys.readouterr().out
    assert code == 2
    assert json.loads(out)["kind"] == "UnsupportedField"
    assert len(out.encode()) < 1024 and "(200000 characters)" in out


def test_classify_non_extra_special_exits_2(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text('{"field": {"kind": "Q"}, "dim": 2, "products": []}')
    code = main(["classify", str(path)])
    capsys.readouterr()
    assert code == 2


def test_verify_theorems_small_sweep(capsys):
    code, doc = run(
        capsys, "verify-theorems", "--max-n", "3", "--lambdas", "2,-1", "--dim-cap", "7"
    )
    assert code == 0
    assert doc["fail_count"] == 0 and doc["pass"] is True
    names = {row["name"] for row in doc["rows"]}
    assert {"j:1", "j:3", "gamma:2", "h2:2", "h2:-1"} <= names
    assert any("+" in n for n in names)
    for row in doc["rows"]:
        assert row["status"] == "PASS"


def test_verify_theorems_rows_have_expected_fields(capsys):
    code, doc = run(capsys, "verify-theorems", "--max-n", "2", "--lambdas", "3", "--dim-cap", "5")
    assert code == 0
    row = doc["rows"][0]
    for key in (
        "name",
        "dim",
        "status",
        "multiplier_assoc",
        "predicted",
        "multiplier_leibniz",
        "predicted_leibniz",
        "capable",
        "unicentral",
        "classify",
        "classify_ok",
    ):
        assert key in row


def test_verify_theorems_library_entry_point():
    rows = verify_theorems(2, [Q.coerce(3)], Q, pair_dim_cap=5)
    assert rows and all(r.ok for r in rows)
    j1_row = next(r for r in rows if r.name == "j:1")
    assert j1_row.detail["multiplier_assoc"] == 1
    assert j1_row.detail["capable"] is True


def test_verify_theorems_over_prime_field():
    gf7 = Field.gf(7)
    rows = verify_theorems(3, [gf7.coerce(3)], gf7, pair_dim_cap=5)
    assert rows and all(r.ok for r in rows)


def test_verify_theorems_row_names_are_unique(capsys):
    # 2, -1 and 5 are all 2 mod 3: one h2:2 row, not three
    code, doc = run(
        capsys, "verify-theorems", "--max-n", "4", "--field", "GF:3", "--dim-cap", "5"
    )
    names = [row["name"] for row in doc["rows"]]
    assert code == 0
    assert len(names) == len(set(names)) == 20
    assert names.count("h2:2") == 1


SMALL_SWEEP = ["verify-theorems", "--max-n", "2", "--lambdas", "3", "--dim-cap", "3"]


def test_verify_theorems_rows_that_only_disagree_exit_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_leibniz_expected", lambda descriptor, field, dim: -1)
    code, doc = run(capsys, *SMALL_SWEEP)
    assert code == 1
    assert doc["fail_count"] == len(doc["rows"]) > 0 and doc["pass"] is False
    assert not any("error" in row for row in doc["rows"])


@pytest.mark.parametrize("error,code", [(RuntimeError, 5), (InternalCheckFailure, 4)])
def test_verify_theorems_row_that_raises_exits_with_its_error_code(capsys, monkeypatch, error, code):
    # exit 1 means a row disagrees with the paper; a row that raised is not that
    def broken(a):
        raise error("planted failure")

    monkeypatch.setattr(forms, "classify", broken)
    assert main(SMALL_SWEEP) == code
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["fail_count"] == len(doc["rows"]) > 0 and doc["pass"] is False
    assert {row["error"] for row in doc["rows"]} == {f"{error.__name__}: planted failure"}
    assert ("Traceback" in captured.err) == (code == 5)


def test_verify_theorems_first_row_that_raises_sets_the_exit_code(capsys, monkeypatch):
    classify = forms.classify

    def broken(a):
        if a.dim == 2:  # j:1, the first row
            raise InternalCheckFailure("planted failure")
        if a.dim == 3:
            raise RuntimeError("planted failure")
        return classify(a)

    monkeypatch.setattr(forms, "classify", broken)
    code, doc = run(capsys, *SMALL_SWEEP)
    assert code == 4
    assert [row["name"] for row in doc["rows"] if "error" in row][:2] == ["j:1", "j:2"]


# sha256 of "<exit code>\n<stdout>" of the full sweep below, captured from a
# known-good build; a refactor must leave the whole payload byte-identical
FULL_SWEEP_DIGEST = "fbc62457e15da607a317fdbcf2e04d5958747753f8f8a22c79b36e2fee392e85"


def test_verify_theorems_full_bounds():
    """The headline sweep: every family member up to index 8, lambdas
    {2, 3, -1, 5}, and all central sums up to total dimension 11 check out,
    and the CLI payload is byte-identical to the known-good one.
    This is the slowest test in the suite: about 3 s measured on a 2-vCPU
    Xeon with Python 3.11."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify-theorems", "--max-n", "8", "--lambdas=2,3,-1,5"])
    rows = json.loads(out.getvalue())["rows"]
    bad = [r["name"] for r in rows if r["status"] != "PASS"]
    assert not bad, f"failing rows: {bad}"
    assert code == 0
    assert len(rows) > 250
    digest = hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()
    assert digest == FULL_SWEEP_DIGEST


# the same digest for `--max-n 6` over small prime fields, captured from the
# same known-good build: GF(3) is where 2, -1 and 5 name one element and
# where h2n:2:2 is excluded
GF_SWEEP_DIGESTS = {
    "GF:3": "ccb4234f3edfeaba12b4b0c8a01a8753b105c22515264c3906cc964f055770e4",
    "GF:5": "f9f9e179effa5ffa8a40457215e3d0204e6fb9771345e1ceab2f14a1ce7ddaa7",
    "GF:7": "22c27e3a35e4ae5f78551cef83f20297df249d2b3d4e94c0d728289b58bb8839",
}


@pytest.mark.parametrize("field", sorted(GF_SWEEP_DIGESTS))
def test_verify_theorems_prime_field_payloads(field):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify-theorems", "--max-n", "6", "--field", field])
    digest = hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()
    assert digest == GF_SWEEP_DIGESTS[field]
