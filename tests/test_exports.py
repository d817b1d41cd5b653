"""Every exported name resolves: a name in a module's __all__, and a name in
the package's table of lazy exports.  A deleted function therefore cannot
leave a stale export behind."""

import importlib
import pkgutil

import chevring

MODULES = sorted(info.name for info in pkgutil.iter_modules(chevring.__path__))


def test_the_package_has_modules_with_exports():
    assert {"arith", "oracles", "poly", "presentations", "rootdata", "verify"} <= set(MODULES)


def test_every_name_in_each_modules_all_resolves():
    for name in MODULES:
        module = importlib.import_module(f"chevring.{name}")
        exported = getattr(module, "__all__", ())
        assert len(set(exported)) == len(exported), name
        missing = [attr for attr in exported if not hasattr(module, attr)]
        assert not missing, (name, missing)


def test_every_name_the_package_imports_resolves():
    assert chevring.__all__ == sorted(chevring._EXPORTS)
    assert len(chevring._EXPORTS) == 29
    for attr, module_name in chevring._EXPORTS.items():
        module = importlib.import_module(f"chevring.{module_name}")
        assert hasattr(module, attr), (module_name, attr)
        assert getattr(chevring, attr) is getattr(module, attr), (module_name, attr)


def test_the_package_resolves_each_of_its_modules():
    assert chevring._MODULES == set(MODULES)
    for name in MODULES:
        assert getattr(chevring, name) is importlib.import_module(f"chevring.{name}")


def test_dir_lists_the_exports():
    assert set(chevring.__all__) <= set(dir(chevring))


def test_an_export_is_the_defining_modules_current_attribute():
    # a tracer installs wrappers by rebinding module attributes and restores
    # them afterwards; the package follows both rebindings
    original, stand_in = chevring.rootdata.lookup, object()
    chevring.rootdata.lookup = stand_in
    try:
        assert chevring.lookup is stand_in
    finally:
        chevring.rootdata.lookup = original
    assert chevring.lookup is original
