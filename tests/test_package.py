"""The package's public names: every entry of `primeaps.__all__` must
resolve, or `from primeaps import *` fails on the stale one."""

import primeaps


def test_all_names_resolve():
    missing = [name for name in primeaps.__all__ if not hasattr(primeaps, name)]
    assert missing == []
    assert len(set(primeaps.__all__)) == len(primeaps.__all__)
    namespace = {}
    exec("from primeaps import *", namespace)
    assert set(primeaps.__all__) <= set(namespace)
