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


LAYERS = ["bloch", "dressed", "emitter", "errors", "floquet", "scans"]


def test_package_exports_every_layer_name_and_no_other():
    layers = [importlib.import_module(f"bifluor.{name}") for name in LAYERS]
    assert set(bifluor.__all__) == {"__version__"}.union(*(layer.__all__ for layer in layers))


# the package's exports when they were still listed by hand; each must stay
LISTED_BY_HAND = """
    __version__ TWO_PI derive_rates EmitterParams DriveField BichromaticDrive
    Spectrum steady_state mollow_spectrum mollow_shape MollowFit fit_mollow
    PeriodicLiouvillian PeriodicState build_periodic_liouvillian periodic_steady_state
    emission_spectrum DoublyDressedLines doubly_dressed_lines central_line_amplitude
    dressed_populations subharmonic_shift EtalonFilter ScanResult2D detuning_map CentralCurve
    central_intensity_curve fit_delta1 SubharmonicScan subharmonic_axis subharmonic_scan
    degenerate_spectrum plateau_edges BifluorError ValidationError UnphysicalDephasingError
    DegenerateDriveError CoverageError ConfigError NumericalError SingularSystemError
    TruncationError FitFailure TruncationWarning NumericsWarning
""".split()


def test_names_once_listed_by_hand_still_import():
    assert len(LISTED_BY_HAND) == 45
    assert [name for name in LISTED_BY_HAND if name not in bifluor.__all__] == []
    assert [name for name in LISTED_BY_HAND if not hasattr(bifluor, name)] == []


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
