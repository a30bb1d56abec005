"""Package surface: every exported name resolves."""

import vtfpar


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from vtfpar import *", namespace)
    assert sorted(set(vtfpar.__all__) - set(namespace)) == []
    assert len(vtfpar.__all__) == len(set(vtfpar.__all__))
