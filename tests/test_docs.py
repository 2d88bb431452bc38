"""README.md describes the package as it is: every name that ``detac``
exports appears in README.md or in the docstring of its module, its
module table names no name that ``detac`` does not export unless it says
so, and the README stays short enough to read in one sitting."""

import ast
import importlib
import itertools
import re
from pathlib import Path

import detac

README = Path(__file__).resolve().parents[1] / "README.md"


def _exports():
    """(module, name) for each name ``detac/__init__.py`` imports from a
    module of the package."""
    tree = ast.parse(Path(detac.__file__).read_text())
    return [(node.module, alias.asname or alias.name)
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_every_export_is_described():
    exports = _exports()
    assert len(exports) > 30
    readme = README.read_text()
    missing = []
    for module, name in exports:
        doc = importlib.import_module(f"detac.{module}").__doc__
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not (word.search(readme) or word.search(doc)):
            missing.append(f"{module}.{name}")
    assert missing == []


def _module_table():
    """(module cell, contents cell) for each row of README's module table."""
    lines = README.read_text().split("## Modules\n", 1)[1].lstrip()
    rows = list(itertools.takewhile(lambda line: line.startswith("|"),
                                    lines.splitlines()))
    return [tuple(line.split("|")[1:3]) for line in rows[2:]]


def test_module_table_names_only_exports_or_says_so():
    # a name that detac does not export must be marked "(not exported)",
    # itself or through its row's module, and still exist in that module
    exported = {name for _, name in _exports()}
    marker = "(not exported)"
    named, stale = 0, []
    for module_cell, contents in _module_table():
        module = re.search(r"`(\w+)`", module_cell).group(1)
        for match in re.finditer(rf"`(\w+)`( {re.escape(marker)})?",
                                 contents):
            name = match.group(1)
            named += 1
            if name in exported:
                continue
            marked = match.group(2) or marker in module_cell
            if not (marked and hasattr(
                    importlib.import_module(f"detac.{module}"), name)):
                stale.append(f"{module}.{name}")
    assert named > 30
    assert stale == []


def test_readme_is_under_300_lines():
    assert len(README.read_text().splitlines()) < 300
