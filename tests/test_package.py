"""The package namespace: every export resolves on first access, and importing
the package loads no numpy."""

import importlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import neumann_widths


def test_each_export_is_its_modules_object():
    for name in neumann_widths.__all__:
        module = importlib.import_module(f"neumann_widths.{neumann_widths._MODULE_OF[name]}")
        assert getattr(neumann_widths, name) is getattr(module, name), name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from neumann_widths import *", namespace)
    assert set(neumann_widths.__all__) <= set(namespace)


def test_dir_lists_every_export():
    assert set(neumann_widths.__all__) <= set(dir(neumann_widths))
    assert "__version__" in dir(neumann_widths)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        neumann_widths.no_such_name
    assert not hasattr(neumann_widths, "no_such_name")


def test_policy_is_one_class_everywhere():
    from neumann_widths import kernels, policy

    assert kernels.EvalPolicy is policy.EvalPolicy is neumann_widths.EvalPolicy
    assert kernels.DEFAULT_POLICY is neumann_widths.DEFAULT_POLICY


def test_policy_contract():
    from neumann_widths import DEFAULT_POLICY, DomainError, EvalPolicy

    policy = EvalPolicy(abs_tol=1e-10, max_terms=7)
    assert repr(policy) == "EvalPolicy(abs_tol=1e-10, max_terms=7)"
    assert repr(DEFAULT_POLICY) == "EvalPolicy(abs_tol=1e-14, max_terms=1000000)"
    assert DEFAULT_POLICY == EvalPolicy() == EvalPolicy(1e-14, 1_000_000)
    assert policy == EvalPolicy(max_terms=7, abs_tol=1e-10) != EvalPolicy(1e-10, 8)
    assert hash(policy) == hash(EvalPolicy(1e-10, 7)) == hash((1e-10, 7))
    with pytest.raises(AttributeError):
        policy.abs_tol = 1.0
    with pytest.raises(AttributeError):
        policy.extra = 1
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(policy, protocol))
        assert type(copy) is EvalPolicy and copy == policy
    assert policy._replace(max_terms=9) == EvalPolicy(1e-10, 9)
    with pytest.raises(DomainError, match="abs_tol"):
        policy._replace(abs_tol=float("inf"))


def test_import_and_policy_load_no_numpy():
    script = ("import json, sys\n"
              "from neumann_widths import DEFAULT_POLICY, EvalPolicy, DomainError\n"
              "print(json.dumps(sorted(sys.modules)))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(neumann_widths.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    loaded = set(json.loads(proc.stdout))
    assert "neumann_widths.policy" in loaded
    assert not loaded & {"numpy", "dataclasses", "inspect", "datetime"}
