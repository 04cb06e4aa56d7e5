"""The package's export list names only what the package has, every error
class is raised somewhere in the package, every public function and class
of a layer is read by package code, no module holds a float or keeps
a value on another object or through a ``functools`` cache, importing the
command line stays light, and each command loads only the layers it
reaches; the elimination, vertex, state and representation layers import
no ``fractions``, and no module imports ``random``."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import effecta
from effecta.serialize import algebra_to_obj, dumps

from zoo_instances import chain, loop4, mo2

SRC = str(Path(effecta.__file__).resolve().parents[1])


def test_every_exported_name_is_an_attribute():
    missing = [name for name in effecta.__all__ if not hasattr(effecta, name)]
    assert missing == []
    assert len(set(effecta.__all__)) == len(effecta.__all__)


def test_star_import_runs():
    namespace: dict = {}
    exec("from effecta import *", namespace)
    assert set(effecta.__all__) <= set(namespace)


def test_an_unknown_attribute_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_export'"):
        effecta.no_such_export


def test_every_error_class_is_named_by_another_module():
    """Every error class but the ``EffectaError`` base is raised, as
    ``raise Name(...)``, in some other module of the package: a class that
    is only imported or caught is one the package never raises, and belongs
    with the code that does, or nowhere."""
    package = Path(effecta.__file__).parent
    errors = ast.parse((package / "errors.py").read_text())
    classes = [node.name for node in errors.body
               if isinstance(node, ast.ClassDef)]
    raised = set()
    for path in package.glob("*.py"):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and isinstance(node.exc.func, ast.Name)):
                raised.add(node.exc.func.id)
    unraised = [name for name in classes
                if name != "EffectaError" and name not in raised]
    assert classes and unraised == []


def test_every_module_parses_as_python_3_10():
    """``pyproject.toml`` promises Python 3.10: no module uses syntax that
    a later version brought, such as ``except*``."""
    for path in sorted(Path(effecta.__file__).parent.glob("*.py")):
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


def test_the_package_has_no_float():
    """Exactness: no module of the package holds a float literal or uses
    the name ``float``."""
    found = []
    for path in sorted(Path(effecta.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Constant) and type(node.value) is float
                    or isinstance(node, ast.Name) and node.id == "float"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


FUNCTOOLS_CACHES = {"cached_property", "cache", "lru_cache"}


def test_no_layer_keeps_values_on_another_object():
    """A value computed once per object is kept by ``algebra.once`` in that
    object's ``_memo``: no module assigns, deletes or ``setattr``s a
    ``_``-prefixed attribute of any object but ``self``, none names
    ``functools``' ``cached_property``, ``cache`` or ``lru_cache``, and the
    algebra's slots hold no cache but ``_memo``.  ``once`` keys a value by
    its function's name, so no two kept functions share one."""
    found, kept = [], []
    for path in sorted(Path(effecta.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef) and any(
                    isinstance(d, ast.Name) and d.id == "once"
                    for d in node.decorator_list):
                kept.append(node.name)
            if (isinstance(node, ast.Attribute)
                    and not isinstance(node.ctx, ast.Load)
                    and node.attr.startswith("_")
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id == "self")
                    or isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "setattr"
                    or isinstance(node, ast.Name)
                    and node.id in FUNCTOOLS_CACHES
                    or isinstance(node, ast.Attribute)
                    and node.attr in FUNCTOOLS_CACHES):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
    assert len(kept) == len(set(kept)) > 0
    assert set(effecta.EffectAlgebra.__slots__) == {
        "labels", "zero", "one", "_sum", "_comp", "_down", "_index", "_memo"}


def test_only_the_algebra_methods_read_the_sum_table():
    """Outside validation, which builds it, the n x n sum table is read
    by ``EffectAlgebra``'s own methods alone; every other layer reads
    ``add``, ``minus``, the down masks or ``defined_sums``."""
    found = []
    for path in sorted(Path(effecta.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        methods = {id(node) for cls in tree.body
                   if isinstance(cls, ast.ClassDef)
                   and cls.name == "EffectAlgebra"
                   for fn in cls.body if isinstance(fn, ast.FunctionDef)
                   for node in ast.walk(fn)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "_sum"
                  and id(node) not in methods]
    assert found == []


@pytest.mark.parametrize("module", ["linalg", "polytope", "states",
                                    "representation"])
def test_the_elimination_and_vertex_layers_import_no_fraction(module):
    """The state equations, the polytope's cuts and vertices, the extremal
    states and the representation's member rows are integers: ``linalg``,
    ``polytope``, ``states`` and ``representation`` import nothing from
    ``fractions``."""
    assert _imports_from(Path(effecta.__file__).parent / f"{module}.py",
                         "fractions") == []


def _imports_from(path: Path, package: str) -> list[str]:
    """Every name the module at ``path`` imports from ``package``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names
                      if a.name.split(".")[0] == package]
        elif isinstance(node, ast.ImportFrom) and node.module == package:
            found += [f"{package}.{a.name}" for a in node.names]
    return found


def test_no_module_imports_random():
    """Every report is a function of the document alone: no module of the
    package imports ``random``."""
    found = {path.name: names
             for path in sorted(Path(effecta.__file__).parent.glob("*.py"))
             if (names := _imports_from(path, "random"))}
    assert found == {}


def _fresh(code: str):
    """What ``code`` prints as a Python literal, run in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True).stdout
    return ast.literal_eval(out)


def test_dir_lists_every_export_before_any_is_loaded():
    listed = _fresh("import effecta\nprint(dir(effecta))")
    assert set(effecta.__all__) <= set(listed)


def _modules_after(statement: str) -> set[str]:
    """The modules that have run in a fresh interpreter after ``statement``;
    a layer the package binds lazily counts once its code has run."""
    return set(_fresh(
        f"import sys\nfrom importlib.util import _LazyModule\n{statement}\n"
        "print(sorted(name for name, module in sys.modules.items()\n"
        "             if type(module) is not _LazyModule))"))


MODULES = sorted(p.stem for p in Path(effecta.__file__).parent.glob("*.py")
                 if p.stem != "__init__")


@pytest.mark.parametrize("module", MODULES)
def test_every_module_imports_alone(module):
    """In-process tests import everything first, so a missing function-local
    import or an import cycle would pass them unseen.  ``import`` alone only
    binds a lazy layer; reading its namespace runs it."""
    assert f"effecta.{module}" in _modules_after(
        f"import effecta.{module}\nvars(effecta.{module})")


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """Every check runs in its own process, so what ``import effecta.cli``
    pulls in is paid per document; ``dataclasses`` alone brings ``inspect``,
    ``ast``, ``dis`` and ``tokenize``."""
    bare = _modules_after("pass")
    added = _modules_after("import effecta.cli") - bare
    assert "effecta.cli" in added
    assert {"dataclasses", "inspect"} & added == set()


def test_importing_the_package_loads_no_submodule():
    assert {m for m in _modules_after("import effecta")
            if m.startswith("effecta.")} == set()


def test_a_layer_is_an_attribute_of_the_package_and_runs_on_first_use():
    loaded = _modules_after("import effecta\neffecta.algebra.check_rdp")
    assert {m for m in loaded if m.startswith("effecta.")} == {
        "effecta.algebra", "effecta.errors"}


def _layers_loaded_by(*argv: str) -> set[str]:
    """The ``effecta`` modules a fresh interpreter loads to run ``argv``."""
    loaded = _modules_after("from effecta.cli import main\n"
                            f"assert main({list(argv)!r}) in (0, 1)")
    return {m.split(".")[1] for m in loaded if m.startswith("effecta.")}


def _document(tmp_path, M) -> str:
    path = tmp_path / "doc.json"
    path.write_text(dumps(algebra_to_obj(M)))
    return str(path)


def test_generate_loads_no_state_or_suite_layer(tmp_path):
    loaded = _layers_loaded_by("generate", "chain", "3",
                               "--output", str(tmp_path / "c3.json"))
    assert "generators" in loaded
    assert loaded & {"states", "linalg", "polytope", "suites",
                     "representation", "observables", "spectral"} == set()


def test_the_states_suite_loads_no_gated_layer(tmp_path):
    loaded = _layers_loaded_by("check", "--input",
                               _document(tmp_path, chain(3)),
                               "--suite", "states",
                               "--output", str(tmp_path / "out"))
    assert "states" in loaded
    assert loaded & {"representation", "observables", "spectral",
                     "generators"} == set()


@pytest.mark.parametrize("suite", ["axioms", "rdp", "sharp"])
def test_the_table_suites_load_no_state_layer(tmp_path, suite):
    """Axioms, refinement and sharp elements read the sum table only."""
    loaded = _layers_loaded_by("check", "--input",
                               _document(tmp_path, chain(3)),
                               "--suite", suite,
                               "--output", str(tmp_path / "out"))
    assert {"algebra", "suites"} <= loaded
    assert loaded & {"states", "linalg", "polytope", "representation",
                     "observables", "spectral", "generators"} == set()


@pytest.mark.parametrize("M", [pytest.param(loop4(), id="loop4"),
                               pytest.param(mo2(), id="mo2")])
def test_a_failed_refinement_gate_loads_neither_smearing_nor_spectral(
        tmp_path, M):
    """The gate is ``canonical_representation``'s, so its module loads."""
    loaded = _layers_loaded_by("check", "--input", _document(tmp_path, M),
                               "--output", str(tmp_path / "out"))
    assert "representation" in loaded
    assert loaded & {"observables", "spectral"} == set()


def test_every_public_function_and_class_has_a_reader_in_the_package():
    """A public top-level function or class of a layer is named by package
    code outside its own definition: one that only tests reach belongs in
    ``tests/oracles.py``, or nowhere.  The export list names its entries as
    strings, so it does not count as a reader."""
    statements = []             # (module, top-level statement, names read)
    for path in sorted(Path(effecta.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            statements.append((path.stem, node, {
                n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))}))
    readers = Counter(name for _, _, names in statements for name in names)
    unread = [f"{module}.{node.name}" for module, node, names in statements
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and module != "__init__" and not node.name.startswith("_")
              and readers[node.name] == (node.name in names)]
    assert unread == []
