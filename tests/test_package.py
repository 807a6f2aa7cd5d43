"""The package's public names."""

import synsim


def test_star_import_binds_exactly_all():
    # A name left in __all__ after its definition is gone fails the import.
    assert len(set(synsim.__all__)) == len(synsim.__all__)
    namespace: dict = {}
    exec("from synsim import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(synsim.__all__)
