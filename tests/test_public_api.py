"""The package's public surface: the names in metacommute.__all__."""
import metacommute


def test_all_names_resolve_once_in_sorted_order_and_star_import():
    names = metacommute.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    namespace = {}
    exec("from metacommute import *", namespace)
    for name in names:
        assert namespace[name] is getattr(metacommute, name), name
