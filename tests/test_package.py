"""The package's export list names only what the package has, and importing
the command line stays light."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import effecta

SRC = str(Path(effecta.__file__).resolve().parents[1])


def test_every_exported_name_is_an_attribute():
    missing = [name for name in effecta.__all__ if not hasattr(effecta, name)]
    assert missing == []
    assert len(set(effecta.__all__)) == len(effecta.__all__)


def test_star_import_runs():
    namespace: dict = {}
    exec("from effecta import *", namespace)
    assert set(effecta.__all__) <= set(namespace)


def _modules_after(statement: str) -> set[str]:
    """The module names loaded in a fresh interpreter after ``statement``."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c",
         f"import sys\n{statement}\nprint(sorted(sys.modules))"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True, check=True).stdout
    return set(ast.literal_eval(out))


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """Every check runs in its own process, so what ``import effecta.cli``
    pulls in is paid per document; ``dataclasses`` alone brings ``inspect``,
    ``ast``, ``dis`` and ``tokenize``."""
    bare = _modules_after("pass")
    added = _modules_after("import effecta.cli") - bare
    assert "effecta.cli" in added
    assert {"dataclasses", "inspect"} & added == set()
