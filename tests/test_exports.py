import bfunc


def test_every_export_resolves():
    missing = [name for name in bfunc.__all__ if not hasattr(bfunc, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from bfunc import *", namespace)
    assert set(bfunc.__all__) <= set(namespace)
