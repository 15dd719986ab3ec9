import importlib.util
import re
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
    "generate",
    "paper_phase_config",
    "recovery_success",
    "run_phase_experiment",
    "run_runtime_experiment",
]

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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


def test_readme_quickstart_runs_and_its_true_claims_hold():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", readme, re.DOTALL).group(1)
    namespace = {}
    exec(block, namespace)
    claims = [
        line.partition("#")[0].strip() for line in block.splitlines() if line.endswith("# True")
    ]
    assert len(claims) == 2
    for claim in claims:
        assert eval(claim, namespace) is True, claim
