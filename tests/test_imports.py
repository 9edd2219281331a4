"""Every module-level import in ``src/looprc`` is used by its module.

No linter runs on this code base, so a name left imported after the code
that used it moved elsewhere would go unnoticed; this walk flags it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "looprc"


def _unused_imports(source: str) -> list[str]:
    """Names a module's top-level imports bind but no expression reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_the_check_flags_an_unused_import():
    source = "import os\nimport numpy as np\nfrom .errors import ConfigError, check_fields\nnp.zeros(check_fields)\n"
    assert _unused_imports(source) == ["os", "ConfigError"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert _unused_imports(path.read_text()) == []
