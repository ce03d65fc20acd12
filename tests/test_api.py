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


def test_every_private_module_level_name_is_read_elsewhere_in_the_package():
    """A private function, class or constant that no other code of the package reads is dead."""
    modules = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(treeuq.__file__).parent.glob("*.py"))
    }
    readers: dict[str, list[int]] = {}  # name -> ids of the nodes that read it
    for module in modules.values():
        for node in ast.walk(module):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                readers.setdefault(node.id, []).append(id(node))
            elif isinstance(node, ast.Attribute):
                readers.setdefault(node.attr, []).append(id(node))

    unread = []
    for file, module in modules.items():
        for node in module.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                continue
            inside = {id(child) for child in ast.walk(node)}  # a recursive call is no reader
            unread += [
                f"{file}: {name}"
                for name in names
                if name.startswith("_")
                and not name.startswith("__")
                and all(reader in inside for reader in readers.get(name, ()))
            ]
    assert unread == []
