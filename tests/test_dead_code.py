"""No dead code in the package: every module-level function and class in
src/dialoscope is named somewhere else in src/, by another top-level
statement of any module, an `__init__.py` re-export or the console-script
entry point in pyproject.toml. A path that only tests reach fails here.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (module, name) with no caller in src/ yet: the report diff waits for a
# `diff` command (ROADMAP item 3), and the validation stub for the benchmark
# to stop calling it (ROADMAP item 1)
ALLOWED = {("report", "diff_reports"), ("report", "load_reference"),
           ("corpus", "validate_corpus")}


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
