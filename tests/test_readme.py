"""The README's library example runs as written, and the package exports
every name it lists."""

import contextlib
import io
import json
import re

import jpq

from .conftest import FIXTURES

README = FIXTURES.parent / "README.md"


def test_readme_library_snippet_runs(monkeypatch):
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.DOTALL)[1]
    monkeypatch.chdir(FIXTURES.parent)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(snippet, "README.md", "exec"), {})
    faculty = json.loads(out.getvalue())["faculty"]
    assert [f["ID"] for f in faculty] == ["0001", "0003", "0012", "0013", "0014"]


def test_every_exported_name_resolves():
    assert all(hasattr(jpq, name) for name in jpq.__all__)
    assert not {"Atom", "Array", "Object"} & set(jpq.__all__)
