"""Only ``synth`` knows the synthetic classes.

A kind's trajectory, renderer and parameter draws all live in
``synth``, so adding a kind is a change to that module alone.  Every
``src/slowfeat/*.py`` is parsed with ``ast``; a string constant equal
to a name in ``synth.KINDS`` outside ``synth.py`` is a finding.
"""

import ast

import pytest

from slowfeat import synth
from source_rules import MODULES, findings, source


def kind_names(source, kinds=synth.KINDS):
    """``(line, name)`` of each string constant of ``source`` in ``kinds``."""
    return sorted((line, name) for line, _, name in findings(
        source, lambda node: (node.value,) if isinstance(node, ast.Constant)
        and isinstance(node.value, str) and node.value in kinds else None))


def test_the_check_finds_each_kind_of_use():
    source = """
'''blob_pulse in a docstring is not a name'''
def spec(kind):
    if kind in ("h_bar_oscillate", "v_bar_oscillate"):
        return 1
    table = {"blob_translate": 2}
    return kind == "blob_pulse" or f"{kind}" == "blob"
"""
    assert kind_names(source) == [
        (4, "h_bar_oscillate"), (4, "v_bar_oscillate"),
        (6, "blob_translate"), (7, "blob_pulse")]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "synth"])
def test_no_other_module_names_a_kind(module):
    assert kind_names(source(module)) == []


def test_synth_names_every_kind():
    # a synth that no longer names the kinds would leave the check
    # guarding nothing
    assert {name for _, name in kind_names(source("synth"))} \
        == set(synth.KINDS)
