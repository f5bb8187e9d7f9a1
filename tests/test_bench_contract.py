"""Every name the benchmark calls resolves in rfanet.

``bench/workloads.py`` calls the package as ``rf.<name>``,
``bench/layers.py`` hooks functions by ``"<module>.<function>"`` and reads
their arguments by parameter name, and ``bench/selftest.py`` checks
attributes as ``rfanet.<module>.<name>``. Deleting or renaming one of them
breaks the benchmark, so it fails here first. The benchmark's files are only
read.
"""

import ast
import importlib
import inspect
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


def _hook_arguments():
    """(hooked function, argument name) for every ``args["<name>"]`` that a
    hook method of bench/layers.py reads."""
    tree = _tree("layers.py")
    methods = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    pairs = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "on_call" and len(node.args) == 2
                and isinstance(node.args[1], ast.Attribute)):
            for sub in ast.walk(methods[node.args[1].attr]):
                if (isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Name)
                        and sub.value.id == "args" and isinstance(sub.slice, ast.Constant)):
                    pairs.add((node.args[0].value, sub.slice.value))
    return sorted(pairs)


def _selftest_attributes():
    """The ``rfanet.<module>.<name>`` and ``rfanet.<name>`` attributes that
    bench/selftest.py reads."""
    names = set()
    for node in ast.walk(_tree("selftest.py")):
        if not isinstance(node, ast.Attribute):
            continue
        chain, inner = [node.attr], node.value
        while isinstance(inner, ast.Attribute):
            chain.append(inner.attr)
            inner = inner.value
        if isinstance(inner, ast.Name) and inner.id == "rfanet":
            names.add(".".join(reversed(chain)))
    return sorted(names)


def test_contract_names_found():
    # the collectors themselves: an empty list would make the tests below vacuous
    assert "run_experiment" in _rf_names() and "embed_sequence" in _rf_names()
    assert "features.sequence_features" in _hooked_functions()
    assert {("rnn.backward", "model"), ("rnn.backward", "trace"), ("rnn.sgd_update", "grads"),
            ("rnn.lstm_step", "model"), ("features.sequence_features", "images"),
            ("matching.train_ranksvm", "probe_embeddings"),
            ("matching.train_ranksvm", "gallery_embeddings"), ("matching.train_ranksvm", "C"),
            ("matching.train_ranksvm", "iters")} <= set(_hook_arguments())
    assert {"aggregate.lstm_step", "evaluation.train", "train"} <= set(_selftest_attributes())


@pytest.mark.parametrize("name", _rf_names())
def test_workload_name_resolves(name):
    assert hasattr(rf, name), f"bench/workloads.py calls rf.{name}, which rfanet lacks"


@pytest.mark.parametrize("name", _hooked_functions())
def test_hooked_function_resolves(name):
    module, function = name.split(".")
    assert callable(getattr(importlib.import_module(f"rfanet.{module}"), function, None)), (
        f"bench/layers.py hooks {name}, which rfanet lacks"
    )


@pytest.mark.parametrize("hooked,argument", _hook_arguments())
def test_hook_argument_is_a_parameter(hooked, argument):
    module, function = hooked.split(".")
    fn = getattr(importlib.import_module(f"rfanet.{module}"), function)
    assert argument in inspect.signature(fn).parameters, (
        f"a bench/layers.py hook reads argument {argument!r} of {hooked}, which has no such "
        f"parameter"
    )


@pytest.mark.parametrize("name", _selftest_attributes())
def test_selftest_attribute_resolves(name):
    target = importlib.import_module("rfanet")
    for part in name.split("."):
        assert hasattr(target, part), f"bench/selftest.py reads rfanet.{name}, which is missing"
        target = getattr(target, part)
