"""Every exported name resolves: a name in a module's __all__, and a name the
package's __init__ imports from its modules.  A deleted function therefore
cannot leave a stale export behind."""

import ast
import importlib
import pkgutil
from pathlib import Path

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
    tree = ast.parse(Path(chevring.__file__).read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    for module_name, attr in imported:
        module = importlib.import_module(f"chevring.{module_name}")
        assert hasattr(module, attr), (module_name, attr)
        assert getattr(chevring, attr) is getattr(module, attr), (module_name, attr)
