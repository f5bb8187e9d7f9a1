"""Every name the benchmark calls resolves in rfanet.

``bench/workloads.py`` calls the package as ``rf.<name>`` and
``bench/layers.py`` hooks functions by ``"<module>.<function>"``. Deleting or
renaming one of them breaks the benchmark, so it fails here first. The
benchmark's files are only read.
"""

import ast
import importlib
from pathlib import Path

import pytest

import rfanet as rf

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tree(name):
    return ast.parse((BENCH / name).read_text(), filename=name)


def _rf_names():
    return sorted({
        node.attr
        for node in ast.walk(_tree("workloads.py"))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id == "rf"
    })


def _hooked_functions():
    return sorted({
        node.args[0].value
        for node in ast.walk(_tree("layers.py"))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute) and node.func.attr == "on_call"
        and node.args and isinstance(node.args[0], ast.Constant)
    })


def test_contract_names_found():
    # the collectors themselves: an empty list would make the tests below vacuous
    assert "run_experiment" in _rf_names() and "embed_sequence" in _rf_names()
    assert "features.sequence_features" in _hooked_functions()


@pytest.mark.parametrize("name", _rf_names())
def test_workload_name_resolves(name):
    assert hasattr(rf, name), f"bench/workloads.py calls rf.{name}, which rfanet lacks"


@pytest.mark.parametrize("name", _hooked_functions())
def test_hooked_function_resolves(name):
    module, function = name.split(".")
    assert callable(getattr(importlib.import_module(f"rfanet.{module}"), function, None)), (
        f"bench/layers.py hooks {name}, which rfanet lacks"
    )
