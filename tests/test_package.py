"""The package namespace: each public name is imported from its module on
first use, so importing the package alone loads none of its modules."""

from __future__ import annotations

import importlib
import subprocess
import sys

import pytest

import editspan
from conftest import checkout_env

MODULES = ("alignment", "codec", "dataset", "errors", "metrics", "tasks", "text")


def test_importing_the_package_loads_no_module_until_one_is_used():
    code = (
        "import sys\n"
        "import editspan\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('editspan.'))\n"
        "assert loaded() == [], loaded()\n"
        "from editspan import metrics\n"
        "assert metrics is sys.modules['editspan.metrics']\n"
        "from editspan import MixSpec\n"
        "assert 'editspan.dataset' not in sys.modules\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=checkout_env()
    )
    assert result.returncode == 0, result.stderr


def test_every_public_name_is_the_object_its_modules_hold():
    modules = [importlib.import_module(f"editspan.{name}") for name in MODULES]
    for name in editspan.__all__:
        value = getattr(editspan, name)
        holders = [module for module in modules if name in vars(module)]
        assert holders, name
        assert all(vars(module)[name] is value for module in holders), name


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from editspan import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(editspan.__all__)
    assert set(editspan.__all__) <= set(dir(editspan))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'editspan' has no attribute 'sub_cost'"):
        editspan.sub_cost
    with pytest.raises(ImportError, match="sub_cost"):
        from editspan import sub_cost  # noqa: F401


def test_importing_a_module_from_the_package_returns_the_module():
    from editspan import alignment, dataset

    assert alignment is sys.modules["editspan.alignment"]
    assert dataset is sys.modules["editspan.dataset"]
