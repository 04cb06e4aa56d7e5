"""The package's export list names only what the package has."""

import effecta


def test_every_exported_name_is_an_attribute():
    missing = [name for name in effecta.__all__ if not hasattr(effecta, name)]
    assert missing == []
    assert len(set(effecta.__all__)) == len(effecta.__all__)


def test_star_import_runs():
    namespace: dict = {}
    exec("from effecta import *", namespace)
    assert set(effecta.__all__) <= set(namespace)
