"""The public surface: every exported name resolves, and none twice."""

import importlib
import pkgutil

import pytest

import bifluor

MODULES = ["bifluor"] + [
    f"bifluor.{info.name}" for info in pkgutil.iter_modules(bifluor.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_package_exports_are_unique():
    assert len(bifluor.__all__) == len(set(bifluor.__all__))
