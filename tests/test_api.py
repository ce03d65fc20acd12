"""The package's public names agree with its modules' __all__ lists."""

import ast
import importlib
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import treeuq


def _package_reexports() -> list[tuple[str, str]]:
    """(module, name) of every name that ``treeuq/__init__.py`` imports from a submodule."""
    tree = ast.parse(Path(treeuq.__file__).read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def test_all_lists_resolve_and_cover_the_package_reexports():
    modules = {
        info.name: importlib.import_module(f"treeuq.{info.name}")
        for info in pkgutil.iter_modules(treeuq.__path__)
    }
    for name, module in modules.items():
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], f"treeuq.{name}.__all__ names undefined {missing}"

    reexports = _package_reexports()
    assert reexports
    for module_name, name in reexports:
        assert name in modules[module_name].__all__, f"{name} is not in treeuq.{module_name}.__all__"
        assert getattr(treeuq, name) is getattr(modules[module_name], name)


def test_the_package_reexports_exactly_the_names_its_callers_use():
    """Run entry points, data helpers, trainers, scorer, envelope, config, result and error types."""
    reexports = {name for _, name in _package_reexports()}
    assert reexports == {
        "Dataset",
        "DatasetError",
        "estimate_bayes_error",
        "make_benchmark_mixture",
        "sample_mixture",
        "EnsembleConfig",
        "ensemble_posterior_matrix",
        "train_ensemble",
        "EnvelopeSummary",
        "envelope_rates",
        "ExperimentConfig",
        "ExperimentError",
        "ExperimentReport",
        "emit_report",
        "load_config",
        "run_experiment",
        "McmcConfig",
        "run_with_restarts",
    }
    public = {name for name in vars(treeuq) if not name.startswith("_")}
    submodules = {info.name for info in pkgutil.iter_modules(treeuq.__path__)}
    assert public - submodules == reexports


def test_every_module_binds_the_one_leaf_posterior_matrix():
    """The one-tree scorer is one object, ensemble.py's, wherever it is bound."""
    from treeuq import ensemble, experiment, mcmc

    assert experiment.leaf_posterior_matrix is ensemble.leaf_posterior_matrix
    assert mcmc.leaf_posterior_matrix is ensemble.leaf_posterior_matrix
    assert ensemble.leaf_posterior_matrix.__module__ == "treeuq.ensemble"


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


def test_readme_library_example_runs(capsys):
    """README's Python example runs as written and prints what its comments say."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    exec(compile(example, "README.md", "exec"), {"__name__": "readme_example"})
    randomized, bayesian, bayes_error = capsys.readouterr().out.splitlines()
    assert randomized.startswith("EnvelopeSummary(") and bayesian.startswith("EnvelopeSummary(")
    assert 0.07 < float(bayes_error) < 0.09  # ~0.078, the benchmark's floor


def test_import_loads_no_scipy():
    """The package and its CLI run on numpy, click and the standard library."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import treeuq, treeuq.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    src = str(Path(treeuq.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"
