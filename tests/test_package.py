"""The package's public names: each module's ``__all__`` is the one list,
and ``crossmap`` exports every name on it."""

import crossmap
from crossmap import ccm, core, embedding, forecast, systems

MODULES = (core, embedding, forecast, ccm, systems)


def test_the_package_exports_each_module_list():
    want = [name for module in MODULES for name in module.__all__] + ["__version__"]
    assert crossmap.__all__ == want
    assert len(set(want)) == len(want)


def test_every_public_name_resolves_to_its_module_binding():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(crossmap, name) is getattr(module, name)
    assert isinstance(crossmap.__version__, str)
    assert crossmap.EDimRow is forecast.EDimRow


def test_a_star_import_binds_every_public_name():
    namespace = {}
    exec("from crossmap import *", namespace)
    assert set(crossmap.__all__) <= set(namespace)
    for name in crossmap.__all__:
        assert namespace[name] is getattr(crossmap, name)
