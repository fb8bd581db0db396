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

import pytest

from source_rules import MODULES, findings, source

OWNER = "sfa"
# (module, function)
ALLOWED = {("pipeline", "cmd_toy_sfa")}


def models_reads(source):
    """``(line, function)`` of each read of an attribute ``models``;
    ``function`` is the innermost enclosing one, or None."""
    return findings(source, lambda node: () if (
        isinstance(node, ast.Attribute) and node.attr == "models"
        and isinstance(node.ctx, ast.Load)) else None)


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
    assert [(line, function)
            for line, function in models_reads(source(module))
            if (module, function) not in ALLOWED] == []


def test_every_allowed_read_is_still_there():
    # an entry that no longer matches a read would allow a new one
    for module, function in ALLOWED:
        assert function in {f for _, f in models_reads(source(module))}
