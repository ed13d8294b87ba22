"""Unused-code guards, over sources parsed with the stdlib `ast` module.

- Unused imports: every name a `src/jpq/*.py` module (the package
  `__init__` aside) imports is referenced in it.  An import line marked
  `# noqa: F401` (a deliberate re-export) is exempt.
- Layers: the modules of `src/jpq` stand in one order, `LAYERS`, and each
  imports from the package only modules before it; `construct` builds with
  the builtins of `model` and imports nothing from `filtering`.
- Dead definitions: every function, method and class defined in `src/jpq`
  (dunders aside) is referenced, by name, attribute or import, somewhere
  in `src/` or `bench/` outside its own body.  Tests do not count: code
  only tests use belongs in `tests/`.  The package `__init__`'s imports
  count, so the public names it re-exports (`jpq.__all__`) are exempt.
- Start-up: importing `jpq.cli` loads neither `dataclasses` nor `inspect`.
"""

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "jpq"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_guard_flags_an_unused_import_and_honours_noqa():
    source = "import os\nfrom x import (\n    a,\n    b,  # noqa: F401\n)\nprint(os)\n"
    assert unused_imports(source) == ["a (line 3)"]


def references(tree: ast.AST) -> Counter:
    """How often each name is used under `tree`: as a name, an attribute or
    an imported name."""
    names: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.split(".")[-1]] += 1
    return names


def dead_definitions(defining: list[str], others: list[str]) -> list[str]:
    """Definitions in the `defining` sources that no source refers to outside
    the definition's own body."""
    trees = [ast.parse(source) for source in defining + others]
    used = sum((references(tree) for tree in trees), Counter())
    return [
        f"{node.name} (line {node.lineno})"
        for tree in trees[: len(defining)]
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and used[node.name] == references(node)[node.name]
    ]


def test_every_definition_is_referenced():
    others = list((REPO / "bench").rglob("*.py"))
    assert dead_definitions(
        [p.read_text() for p in sorted(SRC.glob("*.py"))], [p.read_text() for p in others]
    ) == []


def test_guard_flags_a_definition_only_its_own_body_uses():
    source = (
        "class K:\n    def __init__(self):\n        pass\n    def m(self):\n        return 1\n"
        "def f(n):\n    return f(n - 1)\n"
        "def g():\n    return K().m()\n"
    )
    assert dead_definitions([source], ["from x import g\n"]) == ["f (line 6)"]


LAYERS = ["errors", "terms", "model", "ast", "parser", "matching", "rewrite", "filtering",
          "construct", "engine", "cli"]
UNRELATED = {("construct", "filtering")}  # (importer, imported) pairs kept apart


def package_imports(source: str) -> set[str]:
    """The sibling modules a module's source imports (`from . import x`,
    `from .x import y`)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names.update([node.module] if node.module else [a.name for a in node.names])
    return names


def test_each_module_imports_only_the_layers_before_it():
    assert sorted(f"{m}.py" for m in LAYERS) == MODULES  # every module has its place
    for i, module in enumerate(LAYERS):
        imported = package_imports((SRC / f"{module}.py").read_text())
        assert imported <= set(LAYERS[:i]), (module, imported - set(LAYERS[:i]))
        assert not {(module, m) for m in imported} & UNRELATED, module


def test_layer_guard_reads_both_relative_import_forms():
    source = "import os\nfrom . import ast as A\nfrom .model import key\nfrom json import dumps\n"
    assert package_imports(source) == {"ast", "model"}


def test_importing_jpq_loads_neither_dataclasses_nor_inspect():
    """Importing them, and generating methods with them, once took about a
    third of jpq's start-up; `-S` keeps site hooks from loading them first."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import jpq.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code, str(REPO / "src")],
                          capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout.strip() == "[]"
