"""What the source-rule tests share.

Each rule parses the package's modules, ``src/slowfeat/*.py``, with
``ast``.  ``findings`` walks one module and reports every node that the
rule's ``match`` accepts, with the innermost function around it.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "slowfeat"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def source(module):
    """The text of ``src/slowfeat/<module>.py``."""
    return (SRC / f"{module}.py").read_text(encoding="utf-8")


def findings(source, match):
    """Sorted ``(line, function, *found)`` of each node of ``source``
    but a function definition for which ``match(node)`` gives a tuple
    ``found`` rather than None; ``function`` is the innermost enclosing
    function, or None."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif (hit := match(node)) is not None:
            found.append((node.lineno, function, *hit))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return sorted(found)
