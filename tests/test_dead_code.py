"""No dead code in the package: every module-level function and class in
src/dialoscope is named somewhere else in src/, by another top-level
statement of any module, an `__init__.py` re-export or the console-script
entry point in pyproject.toml; every non-dunder method and property of a
module-level class is named by a src/ statement other than its own
definition; every non-dunder name a module-level assignment binds, in a
module other than `__init__.py`, is read by another src/ statement;
every name a module other than `__init__.py` imports is used in that
module; and every file under data/ is named by a string constant of a src/
module, so the package ships no file that only tests read. A path that
only tests reach fails here.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (module, name) with no caller in src/ yet: perfbench/test_perfbench.py
# still calls the validation stub (ROADMAP item 1)
ALLOWED = {("corpus", "validate_corpus")}

# (module, name) of a module-level assignment no src/ statement reads:
# argparse exits 2 by itself, and the tests import EXIT_USAGE as that code
ALLOWED_ASSIGNMENTS = {("cli", "EXIT_USAGE")}


def _names(node):
    """Every identifier a statement names: variables, attributes, imported
    names and quoted forward references."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and sub.value.isidentifier()):
            yield sub.value


def unused_definitions(package: Path, pyproject: Path):
    """(module, name) of each module-level function or class of `package`
    that no other top-level statement there names, in file order."""
    definitions, named_by = [], {}
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text("utf-8")).body:
            owner = (path.stem, getattr(node, "name", None))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append(owner)
            for name in _names(node):
                named_by.setdefault(name, set()).add(owner)
    entry_points = {m.groups() for m in re.finditer(
        rf'"{package.name}\.(\w+):(\w+)"', pyproject.read_text("utf-8"))}
    return [d for d in definitions
            if d not in entry_points and not named_by.get(d[1], set()) - {d}]


def _parts(tree):
    """(class, method) or None, and the node, for each part of a parsed
    module: a top-level statement, or a piece of a class (a decorator, a
    base, a keyword or a statement of its body), a method owned by itself."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            yield None, node
            continue
        yield from ((None, part) for part in (*node.decorator_list, *node.bases, *node.keywords))
        for member in node.body:
            method = isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
            yield (node.name, member.name) if method else None, member


def unused_methods(package: Path):
    """(module, class, name) of each non-dunder method or property of a
    module-level class of `package` that no other part there names, in
    file order."""
    methods, named_by = [], {}
    for path in sorted(package.glob("*.py")):
        for owner, node in _parts(ast.parse(path.read_text("utf-8"))):
            key = owner and (path.stem, *owner)
            if owner and not _is_dunder(owner[1]):
                methods.append(key)
            for name in _names(node):
                named_by.setdefault(name, set()).add(key)
    return [m for m in methods if not named_by.get(m[-1], set()) - {m}]


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unused_assignments(package: Path):
    """(module, name) of each non-dunder name that a module-level assignment
    of a module of `package` other than `__init__.py` binds and that no
    other top-level statement there names, in file order."""
    assigned, named_by = [], {}
    for path in sorted(package.glob("*.py")):
        for index, node in enumerate(ast.parse(path.read_text("utf-8")).body):
            owner = (path.stem, index)
            if path.name != "__init__.py" and isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                assigned += [(owner, sub.id) for target in targets for sub in ast.walk(target)
                             if isinstance(sub, ast.Name) and not _is_dunder(sub.id)]
            for name in _names(node):
                named_by.setdefault(name, set()).add(owner)
    return [(owner[0], name) for owner, name in assigned
            if not named_by.get(name, set()) - {owner}]


def unused_imports(package: Path):
    """(module, name) of each name a module of `package` other than
    `__init__.py` imports and never reads, in file order; `from __future__`
    imports are compiler directives, not names."""
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text("utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in read:
                        unused.append((path.stem, bound))
    return unused


def unused_data_files(package: Path):
    """The path, relative to `package`, of each file under its data/ whose
    name is part of no string constant of a module of `package`, in path
    order."""
    constants = [sub.value for path in sorted(package.glob("*.py"))
                 for sub in ast.walk(ast.parse(path.read_text("utf-8")))
                 if isinstance(sub, ast.Constant) and isinstance(sub.value, str)]
    return [path.relative_to(package).as_posix()
            for path in sorted((package / "data").rglob("*"))
            if path.is_file() and not any(path.name in text for text in constants)]


def test_every_definition_has_a_caller():
    unused = unused_definitions(ROOT / "src" / "dialoscope", ROOT / "pyproject.toml")
    # an allowed name that gains a caller leaves the list
    assert sorted(unused) == sorted(ALLOWED)


def test_finds_a_definition_only_it_names(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from .a import exported\n", "utf-8")
    (package / "a.py").write_text(
        "def exported():\n    return helper()\n\n"
        "def helper():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
        "def main():\n    pass\n\n"
        "class Unused:\n    '''Unused is named in its own docstring only.'''\n", "utf-8")
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text('[project.scripts]\npkg = "pkg.a:main"\n', "utf-8")
    assert unused_definitions(package, pyproject) == [("a", "recursive"), ("a", "Unused")]


def test_every_data_file_is_named():
    assert unused_data_files(ROOT / "src" / "dialoscope") == []


def test_finds_a_data_file_no_module_names(tmp_path):
    (tmp_path / "data" / "reference").mkdir(parents=True)
    for name in ("used.txt", "in_a_path.tsv", "in_a_comment.txt", "reference/table.json"):
        (tmp_path / "data" / name).write_text("", "utf-8")
    (tmp_path / "a.py").write_text(
        "from importlib import resources\n"
        "USED = resources.files('pkg') / 'data' / 'used.txt'\n"
        "IN_A_PATH = 'data/in_a_path.tsv'\n"
        "# in_a_comment.txt and table.json are named in comments only\n", "utf-8")
    assert unused_data_files(tmp_path) == ["data/in_a_comment.txt", "data/reference/table.json"]


def test_every_method_has_a_caller():
    assert unused_methods(ROOT / "src" / "dialoscope") == []


def test_every_assignment_is_read():
    unused = unused_assignments(ROOT / "src" / "dialoscope")
    # an allowed name that gains a reader leaves the list
    assert sorted(unused) == sorted(ALLOWED_ASSIGNMENTS)


def test_finds_an_assignment_only_it_names(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import main\nPUBLIC = 1\n", "utf-8")
    (tmp_path / "a.py").write_text(
        "__all__ = ['main']\n"
        "USED = 1\nUNUSED = 2\nFIRST, SECOND = 3, 4\nTYPED: int = 5\n"
        "EXPORTED = 6\nDERIVED = USED * 2\nCOUNT = 0\nCOUNT = COUNT + 1\n\n"
        "def main():\n    return FIRST + COUNT\n", "utf-8")
    (tmp_path / "b.py").write_text("from .a import EXPORTED\n", "utf-8")
    assert unused_assignments(tmp_path) == [
        ("a", "UNUSED"), ("a", "SECOND"), ("a", "TYPED"), ("a", "DERIVED")]


def test_every_import_is_used():
    assert unused_imports(ROOT / "src" / "dialoscope") == []


def test_finds_a_method_only_it_names(tmp_path):
    (tmp_path / "a.py").write_text(
        "class Thing:\n"
        "    def __eq__(self, other):\n        return True\n\n"
        "    def used(self):\n        return self.helper()\n\n"
        "    def helper(self):\n        return 1\n\n"
        "    def recursive(self, n):\n        return self.recursive(n - 1) if n else 0\n\n"
        "    @property\n    def size(self):\n        return 0\n\n"
        "def main():\n    return Thing().used()\n", "utf-8")
    assert unused_methods(tmp_path) == [("a", "Thing", "recursive"), ("a", "Thing", "size")]


def test_finds_an_import_its_module_never_reads(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import main\n", "utf-8")
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\nimport json as js\n"
        "from .corpus import Dialog, DialogState\n\n"
        "def main(d: Dialog):\n    return js.dumps(d)\n", "utf-8")
    assert unused_imports(tmp_path) == [("a", "os"), ("a", "DialogState")]
