"""README.md describes the package as it is: every name that ``detac``
exports appears in README.md or in the docstring of its module, and the
README stays short enough to read in one sitting."""

import ast
import importlib
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


def test_readme_is_under_300_lines():
    assert len(README.read_text().splitlines()) < 300
