"""The public surface: every exported name resolves, and none twice."""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

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


def test_benchmark_wraps_only_names_that_exist():
    """bench/layers.py wraps functions by name, so a rename here must fail a test."""
    import bifluor.cli  # noqa: F401  (imports every module the benchmark traces)

    path = Path(__file__).resolve().parents[1] / "bench" / "layers.py"
    spec = importlib.util.spec_from_file_location("bench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)

    def bindings():
        return {
            (name, attr): id(value)
            for name, module in list(sys.modules.items())
            if name.split(".")[0] == "bifluor"
            for attr, value in vars(module).items()
        }

    missing = []

    class Checked(layers.Tracer):
        def _install(self, module, attr, make):
            if not hasattr(sys.modules.get(module), attr):
                missing.append(f"{module}.{attr}")
                return
            super()._install(module, attr, make)

    before = bindings()
    tracer = Checked()
    try:
        layers.install_layers(tracer)
        layers.install_alloc_probe(tracer)
        assert missing == []
        assert tracer._patched
    finally:
        tracer.uninstall()
    assert bindings() == before
