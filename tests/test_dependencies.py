"""The runtime dependency rule: the package imports only the standard
library, numpy and itself."""
import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "ndilab").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "ndilab"}


def imported_roots(path):
    """(line, top-level module) of every absolute import in one file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_every_source_file_is_checked():
    assert len(SOURCES) >= 12 and any(p.name == "imitation.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_stdlib_numpy_and_ndilab(path):
    outside = [f"{path.name}:{line} imports {root}"
               for line, root in imported_roots(path) if root not in ALLOWED]
    assert not outside


def test_guard_flags_a_third_party_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import json\nfrom . import mdp\nimport scipy.linalg\nfrom torch import nn\n")
    assert [root for _, root in imported_roots(probe) if root not in ALLOWED] == ["scipy", "torch"]
