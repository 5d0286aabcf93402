"""Every benchmark module imports.

Plain ``pytest`` collects no ``benchmarks/bench_*.py`` file, so a benchmark
that still imports a deleted name would only fail where the benchmarks run.
Importing each module here -- without running its measurements -- catches
that in the tier-1 suite.
"""

import importlib.util
import pathlib

import pytest

BENCHMARKS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.mark.parametrize(
    "path", sorted(BENCHMARKS.glob("bench_*.py")), ids=lambda path: path.stem
)
def test_benchmark_module_imports(path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))  # their shared _reporting helper
    spec = importlib.util.spec_from_file_location(f"imported_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert any(name.startswith("test_") for name in vars(module))
