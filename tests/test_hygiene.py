"""Stdlib stand-ins for a linter: every module uses each name it imports,
every function and class of the package is used somewhere, the public
surface is reached by the program itself, and every CLI option is exercised.

The package's ``__init__.py`` is skipped by the import check: its imports
are the public API.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "bookturan").glob("*.py")
                 if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no other node reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in
            sorted(imported.items(), key=lambda item: item[1])
            if name not in used]


def test_checker_flags_only_unused_names():
    source = ("from __future__ import annotations\nimport os\n"
              "import os.path as osp\nfrom a import (b, c as d)\nos.sep\nd()\n")
    assert unused_imports(source) == ["line 3: osp", "line 4: b"]


def test_sources_use_every_import():
    assert MODULES and TESTS
    found = {p.relative_to(ROOT).as_posix(): unused_imports(p.read_text())
             for p in MODULES + TESTS}
    assert {path: names for path, names in found.items() if names} == {}


def unreferenced_definitions(defining: list[str],
                              referring: list[str]) -> list[str]:
    """Functions and classes (methods and nested ones included, dunders
    excepted) that the defining sources declare and that no name, attribute
    or import in the referring sources mentions."""
    defined: set[str] = set()
    for source in defining:
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not node.name.startswith("__")):
                defined.add(node.name)
    used: set[str] = set()
    for source in referring:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                used.update(alias.name.split(".")[-1] for alias in node.names)
    return sorted(defined - used)


def test_definition_checker_flags_only_unused_names():
    defining = ("class A:\n    def __init__(self): pass\n"
                "    def m(self): pass\n    def dead(self): pass\n"
                "def f(): pass\ndef g(): pass\ndef h(): pass\n")
    referring = "from pkg import f\nA().m()\ng\n"
    assert unreferenced_definitions([defining], [referring]) == ["dead", "h"]


def test_every_package_definition_is_referenced():
    package = sorted((ROOT / "src" / "bookturan").glob("*.py"))
    assert BENCH
    assert unreferenced_definitions(
        [p.read_text() for p in package],
        [p.read_text() for p in package + TESTS + BENCH]) == []


# Definitions that nothing in the program reaches but that stay on purpose,
# each as a reference oracle or invariant check for the tests.
SURFACE_KEEP = {
    "blowup_edge_count": "brute-force reference for the family optimizer's"
                         " blow-up sweep",
    "is_color_critical": "checks the paper's remark that B_{r,k} is"
                         " colour-critical",
    "from_edges": "the tests' graph builder; it validates its edge list",
    "validate": "the Graph invariant check applied to joins and malformed"
                " rows",
}


def unreached_surface(root: Path) -> list[str]:
    """Package definitions that neither the package modules (other than
    __init__.py), nor bench/, nor tests/test_acceptance.py mention."""
    package = sorted((root / "src" / "bookturan").glob("*.py"))
    reaching = ([p for p in package if p.name != "__init__.py"]
                + sorted((root / "bench").glob("*.py"))
                + [root / "tests" / "test_acceptance.py"])
    return unreferenced_definitions([p.read_text() for p in package],
                                    [p.read_text() for p in reaching])


def test_surface_checker_reads_only_program_sources(tmp_path):
    files = {"src/bookturan/__init__.py": "from .m import test_only\n",
             "src/bookturan/m.py": ("def engine(): pass\ndef helper(): pass\n"
                                    "def accepted(): pass\n"
                                    "def test_only(): pass\nhelper()\n"),
             "bench/run.py": "from bookturan.m import engine\n",
             "tests/test_acceptance.py": "from bookturan.m import accepted\n",
             "tests/test_m.py": "from bookturan.m import test_only\n"}
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    assert unreached_surface(tmp_path) == ["test_only"]


def test_public_surface_is_reached():
    found = set(unreached_surface(ROOT))
    extra = sorted(found - SURFACE_KEEP.keys())
    assert not extra, f"reached only by tests, not on the keep-list: {extra}"
    stale = sorted(SURFACE_KEEP.keys() - found)
    assert not stale, f"on the keep-list but reached by the program: {stale}"


def test_every_cli_option_appears_in_cli_tests():
    """Each "--option" that cli.py passes to add_argument is exercised (at
    least spelled as a string) somewhere in tests/test_cli.py."""
    cli = ast.parse((ROOT / "src" / "bookturan" / "cli.py").read_text())
    options = {arg.value for node in ast.walk(cli)
               if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute)
               and node.func.attr == "add_argument"
               for arg in node.args
               if isinstance(arg, ast.Constant) and arg.value.startswith("--")}
    assert options
    tests = ast.parse((ROOT / "tests" / "test_cli.py").read_text())
    tested = {node.value for node in ast.walk(tests)
              if isinstance(node, ast.Constant)}
    assert sorted(options - tested) == []
