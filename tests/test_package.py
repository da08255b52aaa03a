"""The package namespace: every export resolves on first access, and importing
the package loads no numpy."""

import importlib
import os
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


def test_import_and_policy_load_no_numpy():
    script = ("import sys\n"
              "from neumann_widths import DEFAULT_POLICY, EvalPolicy, DomainError\n"
              "print('numpy' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(neumann_widths.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "False"
