"""The package's public names."""
import isomin


def test_every_exported_name_resolves():
    assert len(set(isomin.__all__)) == len(isomin.__all__)
    missing = [name for name in isomin.__all__ if not hasattr(isomin, name)]
    assert not missing
    namespace = {}
    exec("from isomin import *", namespace)
    assert set(isomin.__all__) <= set(namespace)
