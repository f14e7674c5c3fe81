"""The package surface: lazy names, what each command loads, the value types, and a source
with no unread import and no unreferenced private helper."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import extraspecial
from extraspecial.catalog import BlockDescriptor
from extraspecial.scalars import Field

SRC = os.path.dirname(os.path.dirname(os.path.abspath(extraspecial.__file__)))

# ---------------------------------------------------------------------------
# what a fresh `python -m extraspecial` process loads
# ---------------------------------------------------------------------------

# runs the package as `python -m` does, then reports the loaded modules on stderr
_PROBE = """
import runpy, sys
try:
    runpy.run_module("extraspecial", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(code, *sorted(sys.modules), file=sys.stderr)
"""

BASE = {"algebra", "cli", "cohomology", "errors", "linalg", "scalars", "serialize"}


def _loaded(*argv):
    """Exit code and loaded modules of one fresh process running `argv`."""
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    code, *modules = proc.stderr.split()
    return int(code), set(modules)


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    from extraspecial.catalog import make_from_text
    from extraspecial.dialg import embed_associative
    from extraspecial.serialize import write_algebra

    root = tmp_path_factory.mktemp("docs")
    algebra = make_from_text("j:2+h2:3", Field.rationals())
    paths = {"algebra": root / "algebra.json", "dialgebra": root / "dialgebra.json"}
    paths["algebra"].write_text(write_algebra(algebra))
    paths["dialgebra"].write_text(write_algebra(embed_associative(algebra)))
    return {name: str(path) for name, path in paths.items()}


# each command with a document it accepts, and the modules it loads beyond BASE
COMMANDS = {
    "invariants": (("invariants", "algebra"), set()),
    "multiplier": (("multiplier", "algebra"), set()),
    "zstar": (("zstar", "algebra"), set()),
    "cover": (("cover", "algebra"), set()),
    "capable": (("capable", "algebra"), set()),
    "unicentral": (("unicentral", "algebra"), set()),
    "check-assoc": (("check", "algebra", "--identity", "assoc"), set()),
    "make": (("make", "j:2"), {"catalog"}),
    "classify": (("classify", "algebra"), {"catalog", "forms"}),
    "check-diassoc": (("check", "dialgebra", "--identity", "diassoc"), {"dialg"}),
    "verify-theorems": (("verify-theorems", "--max-n", "2", "--lambdas", "3", "--dim-cap", "3"), {"catalog", "forms"}),
}


@pytest.mark.parametrize("argv,extra", COMMANDS.values(), ids=COMMANDS.keys())
def test_each_command_loads_only_the_modules_it_runs(documents, argv, extra):
    code, modules = _loaded(*(documents.get(arg, arg) for arg in argv))
    assert code == 0
    assert "dataclasses" not in modules
    ours = {m for m in modules if m == "extraspecial" or m.startswith("extraspecial.")}
    assert ours == {"extraspecial"} | {f"extraspecial.{m}" for m in BASE | extra}


# ---------------------------------------------------------------------------
# the source: no unread import, no unreferenced private helper
# ---------------------------------------------------------------------------


def _modules():
    """{file name: parsed module} for every module of the package."""
    package = pathlib.Path(SRC, "extraspecial")
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), path.name) for path in sorted(package.glob("*.py"))}


def _references(node) -> set:
    """The names a piece of code reads, bare or as an attribute."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) or isinstance(n, ast.Attribute)
    }


def test_every_imported_name_is_read():
    for name, tree in _modules().items():
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    assert bound in read, f"{name} imports {bound} and never reads it"


def test_every_private_function_and_class_is_referenced():
    statements = [stmt for tree in _modules().values() for stmt in tree.body]
    references = [_references(stmt) for stmt in statements]
    for stmt in statements:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name.startswith("_") and stmt.name[-2:] != "__":
            # read by another top-level statement of the package; its own body does not count
            assert any(stmt.name in refs for other, refs in zip(statements, references) if other is not stmt), stmt.name


def test_only_scalars_knows_the_scalar_format():
    # every other module computes on ints and asks `Field` (ints, ratio, scalar) to cross
    # over; `.value` is not checked, because `IdentityKind.value` shares the name
    for name, tree in _modules().items():
        if name == "scalars.py":
            continue
        attributes = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        assert not attributes & {"numerator", "denominator"}, name
        assert not names & {"Fraction", "Fp"}, name


# ---------------------------------------------------------------------------
# the package namespace
# ---------------------------------------------------------------------------


def test_every_public_name_is_the_defining_modules_object():
    for module, names in extraspecial._EXPORTS.items():
        defining = importlib.import_module(f"extraspecial.{module}")
        for name in names:
            value = getattr(extraspecial, name)
            assert value is getattr(defining, name), name
            if hasattr(value, "__qualname__"):  # a class or function: listed where it is defined
                assert value.__module__ == defining.__name__, name
    assert sorted(extraspecial.__all__) == sorted(n for names in extraspecial._EXPORTS.values() for n in names)


def test_dir_covers_all():
    assert set(extraspecial.__all__) <= set(dir(extraspecial))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        extraspecial.no_such_name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from extraspecial import *", namespace)
    assert set(extraspecial.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(extraspecial, name) for name in extraspecial.__all__)


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------


def test_field_repr_equality_and_hash():
    assert repr(Field.gf(7)) == "Field(kind='GF', p=7)"
    assert repr(Field.rationals()) == "Field(kind='Q', p=None)"
    assert Field.gf(7) == Field("GF", 7) and hash(Field.gf(7)) == hash(Field("GF", 7))
    assert Field.gf(7) != Field.gf(5) and Field.gf(7) != Field.rationals()
    assert Field.rationals() == Field(kind="Q") and len({Field.rationals(), Field("Q")}) == 1
    assert Field.gf(7) != ("GF", 7)


@pytest.mark.parametrize("attr", ["kind", "p"])
def test_field_is_read_only(attr):
    field = Field.gf(7)
    with pytest.raises(AttributeError):
        setattr(field, attr, 5)
    with pytest.raises(AttributeError):
        delattr(field, attr)
    assert field == Field.gf(7)


def test_block_descriptor_equality_hash_and_read_only():
    d = BlockDescriptor("h", 1, Fraction(3))
    assert d == BlockDescriptor("h", 1, Fraction(3)) and hash(d) == hash(BlockDescriptor("h", 1, Fraction(3)))
    assert d != BlockDescriptor("h", 1, Fraction(1, 3)) and d != BlockDescriptor("h", 2, Fraction(3))
    assert BlockDescriptor("j", 2) == BlockDescriptor(kind="j", n=2, lam=None)
    assert repr(BlockDescriptor("j", 2)) == "BlockDescriptor(kind='j', n=2, lam=None)"
    with pytest.raises(AttributeError):
        d.n = 2
