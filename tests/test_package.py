"""The package's public surface: every exported name exists, once."""

import idfusion


def test_all_has_no_duplicates_and_every_entry_resolves():
    assert len(set(idfusion.__all__)) == len(idfusion.__all__)
    namespace = {}
    # A name in __all__ that the package does not define fails here.
    exec("from idfusion import *", namespace)
    assert set(idfusion.__all__) <= namespace.keys()
