import importlib.util
from pathlib import Path

import pytest

import rpca

ENTRY_POINTS = [
    "SOLVER_IDS",
    "PhaseConfig",
    "RpcaParams",
    "RpcaSolution",
    "SyntheticSpec",
    "accaltproj_solve",
    "altproj_solve",
    "benchmark_l_updates",
    "generate",
    "paper_phase_config",
    "recovery_success",
    "run_phase_experiment",
    "run_runtime_experiment",
]

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_public_surface_is_the_entry_points():
    assert sorted(rpca.__all__) == sorted(ENTRY_POINTS)
    for name in rpca.__all__:
        assert getattr(rpca, name) is not None


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_cleanly(path):
    # Loaded under its own name, not "__main__", so the demo does not run.
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.run_demo)
