"""The public surface: each name a module exports is either run by the
package itself or one of its entry points.

A checked public twin of a function the pipeline runs (an exported form
that nothing in the package calls) fails here, so a stage keeps one form.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "knnmlc"

# what callers outside the package start from: the stage entry points, the
# losses the Trainer calls, what the benchmark calls, the config and error
# types, and the CLI
ENTRY_POINTS = {
    "cli.main",
    "data.load_jsonl",
    "datastore.build",
    "datastore.load",
    "datastore.save",
    "datastore.search",
    "encoder.load_checkpoint",
    "inference.PredictionBundle",
    "inference.predict",
    "inference.predict_batch",
    "losses.bce_loss",
    "losses.contrastive_embedding_grads",
    "losses.contrastive_loss_from_similarities",
    "losses.total_loss",
    "training.Trainer",
    # config types
    "data.DatasetConfig",
    "encoder.EncoderConfig",
    "inference.InferenceConfig",
    "training.TrainConfig",
    # error types
    "data.DataFormatError",
    "datastore.DatastoreFormatError",
    "datastore.InvalidKeyError",
    "datastore.NonFiniteQueryError",
    "encoder.CheckpointError",
    "training.NonFiniteLossError",
}


def _module_exports_and_uses():
    """({module: its __all__}, {(module, name): the functions that use it}).

    A function uses ``module.name`` when it refers to ``name`` defined in or
    imported from ``module`` (``from .module import name``), or to
    ``alias.name`` for ``from . import module as alias``."""
    exports, uses = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        origin, aliases = {}, {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        aliases[alias.asname or alias.name] = alias.name
                    else:
                        origin[alias.asname or alias.name] = (node.module, alias.name)
            elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                exports[module] = ast.literal_eval(node.value)
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Name):
                    target = origin.get(node.id, (module, node.id))
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
                    target = (aliases[node.value.id], node.attr)
                else:
                    continue
                if target[1] != fn.name:
                    uses.setdefault(target, set()).add(f"{module}.{fn.name}")
    return exports, uses


EXPORTS, USES = _module_exports_and_uses()


def test_every_module_with_exports_was_read():
    assert {"data", "datastore", "encoder", "inference", "losses", "mathops", "training"} <= set(EXPORTS)


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_export_is_used_by_the_package_or_an_entry_point(module):
    unused = [
        name for name in EXPORTS[module]
        if (module, name) not in USES and f"{module}.{name}" not in ENTRY_POINTS
    ]
    assert not unused, f"{module} exports {unused}, which no function in the package uses and no caller enters by"


def test_every_entry_point_is_defined():
    for entry in ENTRY_POINTS:
        module, name = entry.split(".")
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        defined = {n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        assert name in defined, f"{entry} is not defined in its module"


def _unreferenced_private_definitions():
    """The module-level ``_private`` functions and classes of the package
    that no code of the package outside their own body names (by name, as
    an attribute, or in an import)."""
    defined, named = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(top, "name", None) if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            if owner and owner.startswith("_") and not owner.startswith("__"):
                defined.append(f"{path.stem}.{owner}")
            for node in ast.walk(top):
                name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
                if isinstance(node, (ast.Name, ast.Attribute, ast.alias)) and name != owner:
                    named.add(name)
    return [entry for entry in defined if entry.split(".")[1] not in named]


def test_every_private_definition_is_used_by_the_package():
    # a helper that only tests call belongs in tests/ (oracles.py), not in the package
    unused = _unreferenced_private_definitions()
    assert not unused, f"{unused} are defined in the package but named nowhere else in it"
