import re
import runpy
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
def test_demo_runs(path):
    # run as a script, under the run's warning filters: a RuntimeWarning fails it
    runpy.run_path(str(path), run_name="__main__")


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
