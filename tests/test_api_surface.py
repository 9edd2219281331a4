"""The documented public surface: every name the README's "Library use"
section names is importable from the module it names there, and the
package root holds only ``__version__``."""

import importlib
import re
import types
from pathlib import Path

import pytest

import looprc
import looprc.synthrf

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_use() -> str:
    text = README.read_text()
    start = text.index("## Library use")
    end = text.find("\n## ", start + 1)
    return text[start : end if end != -1 else len(text)]


def _documented_names() -> list[tuple[str, str]]:
    """(module, name) for each ``from looprc.m import a, b`` line and each
    ``looprc.m.name`` reference in the section."""
    section = _library_use()
    pairs = []
    for module, names in re.findall(r"^from (looprc\.\w+) import (.+)$", section, re.M):
        pairs += [(module, name.strip()) for name in names.split(",")]
    pairs += [(f"looprc.{m}", name) for m, name in re.findall(r"`looprc\.(\w+)\.(\w+)`", section)]
    return sorted(set(pairs))


def test_readme_documents_some_names():
    modules = {module for module, _ in _documented_names()}
    assert {"looprc.pipeline", "looprc.reservoir", "looprc.topology", "looprc.classifier"} <= modules


@pytest.mark.parametrize("module, name", _documented_names())
def test_documented_name_imports_from_its_module(module, name):
    assert hasattr(importlib.import_module(module), name)


def test_package_root_exports_only_the_version():
    assert isinstance(looprc.__version__, str)
    public = {n for n, v in vars(looprc).items() if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert public == set()


@pytest.mark.parametrize("name", ["CaptureStream", "synthesize_capture", "detect_bursts", "extract_burst"])
def test_deleted_capture_path_stays_deleted(name):
    assert not hasattr(looprc.synthrf, name)


@pytest.mark.parametrize(
    "module, name",
    [
        ("looprc.transforms", "TransformKind"),
        ("looprc.pipeline", "transform_specs_from_config"),
        ("looprc.topology", "even_bank"),
        ("looprc.topology", "single_loop_topology"),
        ("looprc.pipeline", "topology_input_length"),
        ("looprc.pipeline", "loop_to_dict"),
        ("looprc.synthrf", "gen_protocol_burst"),
    ],
)
def test_deleted_names_stay_deleted(module, name):
    assert not hasattr(importlib.import_module(module), name)


def test_lower_level_snippet_runs_as_written():
    blocks = re.findall(r"```python\n(.*?)```", _library_use(), re.S)
    (snippet,) = [b for b in blocks if "run_topology(" in b]
    scope = {}
    exec(compile(snippet, "README.md", "exec"), scope)
    assert scope["states"].shape == (len(scope["rows"]), 300)
    assert scope["joint"].shape == (len(scope["datapoints"]), 1200)
