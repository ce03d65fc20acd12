"""The package's public names agree with its modules' __all__ lists."""

import ast
import importlib
import pkgutil
from pathlib import Path

import treeuq


def test_all_lists_resolve_and_cover_the_package_reexports():
    modules = {
        info.name: importlib.import_module(f"treeuq.{info.name}")
        for info in pkgutil.iter_modules(treeuq.__path__)
    }
    for name, module in modules.items():
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], f"treeuq.{name}.__all__ names undefined {missing}"

    tree = ast.parse(Path(treeuq.__file__).read_text(encoding="utf-8"))
    reexports = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert reexports
    for module_name, name in reexports:
        assert name in modules[module_name].__all__, f"{name} is not in treeuq.{module_name}.__all__"
        assert getattr(treeuq, name) is getattr(modules[module_name], name)
