"""Every error class of the package is raised somewhere in it."""

import ast
from pathlib import Path

import saext

SOURCE = Path(saext.__file__).parent


def raised_names():
    """The names of the classes that a raise statement in the package raises."""
    names = set()
    for path in SOURCE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, (ast.Name, ast.Attribute)):
                    names.add(exc.id if isinstance(exc, ast.Name) else exc.attr)
    return names


def test_every_error_class_is_raised():
    defined = {node.name for node in ast.parse((SOURCE / "errors.py").read_text()).body
               if isinstance(node, ast.ClassDef)}
    assert sorted(defined - {"SaextError"} - raised_names()) == []
