"""Every public callable in ``src/repro`` has a caller.

A public module-level function, class or constant, or a public method,
fails unless its name appears somewhere in ``src/``, ``examples/``,
``bench/`` or ``tools/`` as a loaded ``ast.Name`` or ``ast.Attribute``,
or as a string literal outside ``__all__``.  Its own definition, import
aliases and ``__all__`` entries do not count, and neither do the tests:
code only its own tests reach is deleted, and a reference the tests
check other code against lives under ``tests/``.

Matching is by name only, so the check can miss dead code (a dead
``run`` hides behind any live ``run``) but never flags live code.

Every ``__all__`` entry of every module must also resolve on import,
which is what catches a stale re-export after a deletion.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "examples", "bench", "tools")

#: kept without a caller, each for one reason; a path names a whole
#: module, ``path::Class.method`` one callable
ALLOWED = {
    "repro/hacc/mpi_sim.py": (
        "the mpi4py-shaped communicator and DomainDecomposition run only in "
        "examples/multirank_simulation.py until ranks share the work"
    ),
    "repro/hacc/tree.py": (
        "the RCB tree waits on the cost model charging the leaf-pair schedule"
    ),
    "repro/kernels/leaf_schedule.py": (
        "the leaf-pair schedule waits on the cost model charging it"
    ),
    "repro/hacc/short_range.py::ShortRangeSolver.clear_memo": (
        "the seam the memo-cleared differential run tests use"
    ),
}


def _all_entries(tree: ast.Module) -> set[int]:
    """ids of the string nodes inside ``__all__`` assignments."""
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                ids.update(id(c) for c in ast.walk(node) if isinstance(c, ast.Constant))
    return ids


def referenced_names(root: Path) -> set[str]:
    """Every name the caller directories under ``root`` use."""
    names: set[str] = set()
    for directory in CALLER_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            in_all = _all_entries(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                    names.add(node.attr)
                elif (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and id(node) not in in_all
                ):
                    names.add(node.value)
    return names


def _definitions(tree: ast.Module):
    """(qualified name, bare name) of each public definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield f"{node.name}.{member.name}", member.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, target.id


def uncalled(root: Path, allowed: dict[str, str] = ALLOWED) -> list[str]:
    """``path::name`` of every public definition in ``root/src/repro``
    that no caller directory references."""
    names = referenced_names(root)
    package = root / "src"
    found = []
    for path in sorted((package / "repro").rglob("*.py")):
        module = path.relative_to(package).as_posix()
        if module in allowed:
            continue
        for qualified, bare in _definitions(ast.parse(path.read_text())):
            if bare.startswith("_") or bare in names:
                continue
            if f"{module}::{qualified}" not in allowed:
                found.append(f"{module}::{qualified}")
    return found


def _modules() -> list[str]:
    package = ROOT / "src"
    return sorted(
        ".".join(path.relative_to(package).with_suffix("").parts).removesuffix(
            ".__init__"
        )
        for path in (package / "repro").rglob("*.py")
        if path.name != "__main__.py"
    )


class TestEveryCallableHasACaller:
    def test_src_has_no_uncalled_public_names(self):
        assert uncalled(ROOT) == []

    def test_allow_list_names_what_exists(self):
        for entry in ALLOWED:
            module, _, qualified = entry.partition("::")
            path = ROOT / "src" / module
            assert path.is_file(), entry
            if qualified:
                assert f"{module}::{qualified}" in {
                    f"{module}::{q}" for q, _ in _definitions(ast.parse(path.read_text()))
                }, entry


class TestChecker:
    """The checker on a synthetic tree."""

    @staticmethod
    def _tree(tmp_path: Path, files: dict[str, str]) -> Path:
        for relative, text in files.items():
            path = tmp_path / relative
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        return tmp_path

    def test_unused_def_is_reported(self, tmp_path):
        root = self._tree(tmp_path, {"src/repro/m.py": "def lonely():\n    pass\n"})
        assert uncalled(root, {}) == ["repro/m.py::lonely"]

    def test_all_and_import_do_not_count(self, tmp_path):
        root = self._tree(
            tmp_path,
            {
                "src/repro/m.py": "__all__ = ['exported']\ndef exported():\n    pass\n",
                "src/repro/n.py": "from repro.m import exported\n",
            },
        )
        assert uncalled(root, {}) == ["repro/m.py::exported"]

    def test_attribute_use_and_examples_count(self, tmp_path):
        root = self._tree(
            tmp_path,
            {
                "src/repro/m.py": (
                    "class Box:\n"
                    "    def open(self):\n        pass\n"
                    "    def seal(self):\n        pass\n"
                    "LIMIT = 3\n"
                    "def build():\n    return Box().open()\n"
                ),
                "examples/demo.py": (
                    "from repro.m import build, LIMIT\nbuild().seal()\nprint(LIMIT)\n"
                ),
            },
        )
        assert uncalled(root, {}) == []
        (root / "examples" / "demo.py").unlink()
        assert uncalled(root, {}) == [
            "repro/m.py::Box.seal",
            "repro/m.py::LIMIT",
            "repro/m.py::build",
        ]

    def test_string_literal_counts(self, tmp_path):
        root = self._tree(
            tmp_path,
            {"src/repro/m.py": "def hook():\n    pass\nNAME = 'hook'\nprint(NAME)\n"},
        )
        assert uncalled(root, {}) == []

    def test_allowed_module_and_callable_are_skipped(self, tmp_path):
        root = self._tree(
            tmp_path,
            {
                "src/repro/m.py": "def lonely():\n    pass\n",
                "src/repro/n.py": "class C:\n    def seam(self):\n        pass\nC()\n",
            },
        )
        allowed = {"repro/m.py": "decided later", "repro/n.py::C.seam": "test seam"}
        assert uncalled(root, allowed) == []
        assert uncalled(root, {}) == ["repro/m.py::lonely", "repro/n.py::C.seam"]


def test_every_all_entry_resolves():
    missing = []
    for name in _modules():
        module = importlib.import_module(name)
        missing += [
            f"{name}.{entry}"
            for entry in getattr(module, "__all__", ())
            if not hasattr(module, entry)
        ]
    assert missing == []
