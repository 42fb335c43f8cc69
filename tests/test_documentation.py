"""Documentation contract: every public item is documented.

The release promise (README: "doc comments on every public item") is
enforced here so it cannot silently rot: every module in the package
carries a module docstring, every symbol exported from
``repro.__all__`` carries a non-trivial docstring, and the ``REPRO_*``
environment knobs the docs name are exactly the ones the code reads.
"""

import ast
import importlib
import pathlib
import pkgutil
import re

import pytest

import repro

SRC_ROOT = pathlib.Path(repro.__file__).parent
REPO_ROOT = SRC_ROOT.parent.parent


def _all_modules():
    names = ["repro"]
    for info in pkgutil.walk_packages([str(SRC_ROOT)], prefix="repro."):
        if info.name.endswith("__main__"):
            continue  # importing it would run the CLI
        names.append(info.name)
    return sorted(names)


MODULES = _all_modules()


class TestModuleDocstrings:
    @pytest.mark.parametrize("name", MODULES)
    def test_module_has_docstring(self, name):
        module = importlib.import_module(name)
        assert module.__doc__ and module.__doc__.strip(), (
            f"module {name} lacks a docstring"
        )


class TestPublicApiDocstrings:
    @pytest.mark.parametrize(
        "symbol", [s for s in repro.__all__ if s != "__version__"]
    )
    def test_exported_symbol_documented(self, symbol):
        obj = getattr(repro, symbol)
        doc = getattr(obj, "__doc__", None)
        assert doc and len(doc.strip()) > 10, (
            f"repro.{symbol} lacks a useful docstring"
        )

    def test_all_exports_resolve(self):
        for symbol in repro.__all__:
            assert hasattr(repro, symbol), f"__all__ lists missing {symbol}"

    def test_version_string(self):
        assert repro.__version__.count(".") == 2


_KNOB_RE = re.compile(r"REPRO_[A-Z][A-Z_]*")


def _knobs_read_by_code():
    """``REPRO_*`` names spelled as whole string literals under src/."""
    names = set()
    for path in SRC_ROOT.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and _KNOB_RE.fullmatch(node.value)
            ):
                names.add(node.value)
    return names


def _knobs_named_in_docs():
    paths = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").rglob("*.md"))]
    names = set()
    for path in paths:
        names.update(_KNOB_RE.findall(path.read_text(encoding="utf-8")))
    return names


class TestKnobInventory:
    def test_docs_name_exactly_the_knobs_the_code_reads(self):
        read = _knobs_read_by_code()
        named = _knobs_named_in_docs()
        assert read, "no REPRO_* knob found under src/"
        assert named - read == set(), "docs name knobs the code never reads"
        assert read - named == set(), "code reads knobs the docs never name"
