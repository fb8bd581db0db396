"""Only ``sfa`` tells the strategies apart.

Every other rule follows from a bank's or a run's grid: cuboids are
labeled with their cell of it, a bank splits its product by region when
the grid has more than one cell, and the classifier mirrors rows when
it has more than one column.  So a one-cell sdsfa run is a dsfa run.
Every ``src/slowfeat/*.py`` is parsed with ``ast``; outside ``sfa.py``,
a comparison (``==``, ``!=``, ``in``, ``not in``) with an operand that
is a strategy-name string constant, or a tuple, list or set holding
one, is a finding.
"""

import ast

import pytest

from slowfeat import sfa
from source_rules import MODULES, findings, source

OPERATORS = (ast.Eq, ast.NotEq, ast.In, ast.NotIn)


def names_a_strategy(node):
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(names_a_strategy(e) for e in node.elts)
    return (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value in sfa.STRATEGIES)


def strategy_tests(source):
    """``(line, function)`` of each comparison of ``source`` against a
    strategy name."""
    def match(node):
        if not isinstance(node, ast.Compare) or not any(
                isinstance(op, OPERATORS) for op in node.ops):
            return None
        operands = [node.left, *node.comparators]
        return () if any(names_a_strategy(o) for o in operands) else None

    return findings(source, match)


def test_the_check_finds_each_kind_of_comparison():
    source = """
'''an sdsfa bank in a docstring is no comparison'''
STRATEGIES = ("usfa", "ssfa")

def route(bank, config):
    copies = 2 if bank.strategy == "sdsfa" else 1
    if "usfa" != config.strategy or bank.strategy in ("dsfa", "sdsfa"):
        return [config.strategy not in ["ssfa"], {"dsfa"} == set()]
    return config.strategy is "usfa", bank.strategy == "pca"
"""
    assert strategy_tests(source) == [
        (6, "route"), (7, "route"), (7, "route"), (8, "route"),
        (8, "route")]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "sfa"])
def test_no_other_module_compares_a_strategy_name(module):
    assert strategy_tests(source(module)) == []


def test_sfa_still_compares_strategy_names():
    # an sfa that no longer tells strategies apart by name would leave
    # the check guarding nothing
    assert strategy_tests(source("sfa"))
