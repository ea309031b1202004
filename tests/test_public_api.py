import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import fedmesh

ROOT = Path(__file__).resolve().parents[1]

PUBLIC_API = [
    "AdversaryAssignment",
    "BinaryMetrics",
    "CrossEdgeConfig",
    "DataConfig",
    "Dataset",
    "RoundRecord",
    "SecAggConfig",
    "SelectionConfig",
    "SimulationConfig",
    "SimulationResult",
    "TrainerConfig",
    "generate_synthetic",
    "ingest_csv",
    "run",
]


def test_public_api_is_pinned():
    # growing or shrinking the public surface must be a deliberate edit here
    assert sorted(fedmesh.__all__) == PUBLIC_API
    assert len(set(fedmesh.__all__)) == len(fedmesh.__all__)
    for name in PUBLIC_API:
        assert getattr(fedmesh, name) is not None


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from fedmesh import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(fedmesh.__all__)


def test_readme_module_paths_resolve():
    # each backticked `fedmesh.<module>.<name>` in README names something that exists
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    paths = set(re.findall(r"`fedmesh\.(\w+)((?:\.\w+)*)", readme))
    assert ("secagg", ".encrypt_update") in paths and ("selection", ".select_clients") in paths
    for module, names in sorted(paths):
        target = importlib.import_module(f"fedmesh.{module}")
        for name in names.split(".")[1:]:
            target = getattr(target, name)


def _referenced_names(tree):
    """How often each name is read in `tree`, as a bare name or as an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    )


def _defined_names(node):
    """The names a module-level statement defines: a function's or class's, or an assignment's targets."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if not isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        return []
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)]


def _parsed(directory):
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(directory.glob("*.py"))}


def test_every_module_level_definition_has_a_caller_outside_the_tests():
    # a function or class of src/fedmesh must be used by src outside its own body, wrapped or
    # called by perfbench (whose probe targets are named by string), exported, or be cli.main;
    # a module-level constant or other assigned name must be read by src outside its assignment
    modules = _parsed(ROOT / "src" / "fedmesh")
    in_src = sum((_referenced_names(tree) for tree in modules.values()), Counter())
    perfbench = _parsed(ROOT / "perfbench").values()
    in_perfbench = {name for tree in perfbench for name in _referenced_names(tree)}
    in_perfbench |= {node.value for tree in perfbench for node in ast.walk(tree) if isinstance(node, ast.Constant)}
    unused = []
    for path, tree in modules.items():
        for node in tree.body:
            for name in _defined_names(node):
                outside = in_src[name] - _referenced_names(node)[name]
                if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                    exempt = name.startswith("__") and name.endswith("__")
                else:
                    exempt = name in in_perfbench or name in fedmesh.__all__ or (path.stem, name) == ("cli", "main")
                if not (outside or exempt):
                    unused.append(f"{path.stem}.{name}")
    assert unused == []


def test_every_method_has_a_caller_outside_the_tests():
    # a method or property of a src/fedmesh class must be read by name in src outside its own
    # body, or in perfbench; dunders are called by Python itself
    modules = _parsed(ROOT / "src" / "fedmesh")
    in_src = sum((_referenced_names(tree) for tree in modules.values()), Counter())
    in_perfbench = {name for tree in _parsed(ROOT / "perfbench").values() for name in _referenced_names(tree)}
    unused = [
        f"{path.stem}.{cls.name}.{method.name}"
        for path, tree in modules.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for method in cls.body
        if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (method.name.startswith("__") and method.name.endswith("__"))
        and not (in_src[method.name] - _referenced_names(method)[method.name] or method.name in in_perfbench)
    ]
    assert unused == []
