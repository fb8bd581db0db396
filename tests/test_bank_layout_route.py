"""The bank's cell layout is known to ``sfa`` alone.

A ``ModelBank`` holds its cells as arrays, laid out by its strategy,
class labels and grid; ``bank.models`` is a per-cell view of them.  Code
outside ``sfa`` reads the arrays and the layout fields, not the view,
so no other module walks the cells and rebuilds their layout.  Every
``src/slowfeat/*.py`` is parsed with ``ast``; a read of an attribute
named ``models`` outside ``sfa`` is a finding, unless it is on the list
of allowed reads: the toy demo's ``bank.models[0]``, which applies the
one model of a usfa bank.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "slowfeat"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))

OWNER = "sfa"
# (module, function)
ALLOWED = {("pipeline", "cmd_toy_sfa")}


def models_reads(source):
    """``(line, function)`` of each read of an attribute ``models``;
    ``function`` is the innermost enclosing one, or None."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif (isinstance(node, ast.Attribute) and node.attr == "models"
              and isinstance(node.ctx, ast.Load)):
            found.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return sorted(found)


def test_the_check_finds_each_kind_of_read():
    source = """
from . import sfa

count = len(sfa.fit_bank("usfa", x, 2, 1).models)

def edges(bank):
    def inner():
        return [m.k for m in bank.models]
    return bank.models[0], inner()

def build(bank, models):
    bank.models = models
    return models, bank.k_total
"""
    assert models_reads(source) == [(4, None), (8, "inner"), (9, "edges")]


@pytest.mark.parametrize("module", MODULES)
def test_only_sfa_reads_the_models_of_a_bank(module):
    if module == OWNER:
        return
    source = (SRC / f"{module}.py").read_text(encoding="utf-8")
    assert [(line, function) for line, function in models_reads(source)
            if (module, function) not in ALLOWED] == []


def test_every_allowed_read_is_still_there():
    # an entry that no longer matches a read would allow a new one
    for module, function in ALLOWED:
        source = (SRC / f"{module}.py").read_text(encoding="utf-8")
        assert function in {f for _, f in models_reads(source)}
