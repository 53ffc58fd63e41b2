"""Fixture-driven tests: every RPL rule fires on its bad snippet and stays
silent on the matching good snippet, at the rule's real default scope."""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.analysis import LintConfig, run_analysis
from repro.analysis.engine import scope_matches

FIXTURES = Path(__file__).parent / "fixtures"

#: (rule code, fixture dir, destination inside the rule's default scope).
CASES = [
    ("RPL001", "rpl001", "src/repro/simulator/fixture_mod.py"),
    ("RPL002", "rpl002", "src/repro/compression/fixture_mod.py"),
    ("RPL003", "rpl003", "src/repro/api/fixture_mod.py"),
    ("RPL004", "rpl004", "src/repro/api/fixture_mod.py"),
    ("RPL005", "rpl005", "src/repro/service/fixture_mod.py"),
    ("RPL006", "rpl006", "src/repro/compression/fixture_mod.py"),
    ("RPL007", "rpl007", "src/repro/service/fixture_mod.py"),
]

#: Findings each bad fixture must produce (pinned so a rule that silently
#: stops matching one of its patterns fails here, not in production).
EXPECTED_BAD_FINDINGS = {
    "RPL001": 4,  # wall-clock, np.random.rand, random.choice, unseeded rng
    "RPL002": 4,  # dtype-less zeros, astype(float64), dtype-less array, "float64"
    "RPL003": 4,  # display attr, id(), unsorted items(), hash()
    "RPL004": 2,  # lambda to process pool, worker mutating module state
    "RPL005": 3,  # time.sleep, sqlite3.connect, subprocess.run
    "RPL006": 1,  # one class missing protocol and its batched kernel
    "RPL007": 3,  # except-continue, bare except-pass, tuple with Exception
}


def _plant(tmp_path: Path, fixture: str, variant: str, destination: str) -> Path:
    target = tmp_path / destination
    target.parent.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(FIXTURES / fixture / f"{variant}.py", target)
    return target


@pytest.mark.parametrize("code,fixture,destination", CASES)
def test_bad_fixture_fires(code, fixture, destination, tmp_path):
    _plant(tmp_path, fixture, "bad", destination)
    report = run_analysis(["src"], root=tmp_path, only_rules=[code])
    assert len(report.findings) == EXPECTED_BAD_FINDINGS[code]
    assert {finding.rule for finding in report.findings} == {code}
    for finding in report.findings:
        assert finding.path == destination
        assert finding.line >= 1


@pytest.mark.parametrize("code,fixture,destination", CASES)
def test_good_fixture_state_silent(code, fixture, destination, tmp_path):
    _plant(tmp_path, fixture, "good", destination)
    # The good snippet is clean under *every* rule, not just its own: the
    # recommended replacement for one invariant must not trip another.
    report = run_analysis(["src"], root=tmp_path)
    assert report.findings == []


@pytest.mark.parametrize("code,fixture,destination", CASES)
def test_bad_fixture_out_of_scope_is_ignored(code, fixture, destination, tmp_path):
    # Planted outside the rule's default path scope, the violation is not
    # this rule's business (generic linters cover generic code).
    _plant(tmp_path, fixture, "bad", "scripts/elsewhere.py")
    config = LintConfig()
    scoped = config.paths_for(code)
    if not scoped:
        pytest.skip(f"{code} applies everywhere by design")
    report = run_analysis(["scripts"], root=tmp_path, only_rules=[code])
    assert report.findings == []


def test_scope_matching_semantics():
    patterns = ("src/repro/simulator", "src/repro/compression/kernels.py")
    assert scope_matches("src/repro/simulator/cluster.py", patterns)
    assert scope_matches("src/repro/compression/kernels.py", patterns)
    assert not scope_matches("src/repro/compression/thc.py", patterns)
    assert not scope_matches("src/repro/simulator_extras/x.py", patterns)
    assert scope_matches("anything/at/all.py", ())


def test_rpl002_whole_module_scope(tmp_path):
    # In the designated hot-path modules the float32 discipline applies to
    # the whole file, not only aggregate_matrix bodies.
    target = tmp_path / "src/repro/compression/kernels.py"
    target.parent.mkdir(parents=True)
    target.write_text(
        "import numpy as np\n\ndef helper(n):\n    return np.zeros(n)\n",
        encoding="utf-8",
    )
    report = run_analysis(["src"], root=tmp_path, only_rules=["RPL002"])
    assert len(report.findings) == 1
    assert "dtype-less" in report.findings[0].message


def test_rpl001_seeded_generator_and_shadowing_are_clean(tmp_path):
    target = tmp_path / "src/repro/simulator/ok.py"
    target.parent.mkdir(parents=True)
    target.write_text(
        "import numpy as np\n"
        "def run(seed):\n"
        "    rng = np.random.default_rng((seed, 3))\n"
        "    time = object()\n"  # local shadowing a module name: not a read
        "    return rng.random(4), time\n",
        encoding="utf-8",
    )
    report = run_analysis(["src"], root=tmp_path, only_rules=["RPL001"])
    assert report.findings == []


def test_rpl004_closure_to_thread_pool_is_allowed(tmp_path):
    # Threads share the interpreter: closures are legal there, and a
    # dynamically resolved executor is given the benefit of the doubt.
    target = tmp_path / "src/repro/api/ok.py"
    target.parent.mkdir(parents=True)
    target.write_text(
        "from repro.api.executors import run_tasks\n"
        "def sweep(tasks, strategy, offset):\n"
        "    run_tasks(tasks, lambda t: t + offset, executor='thread')\n"
        "    def evaluate(t):\n"
        "        return t + offset\n"
        "    return run_tasks(tasks, evaluate, executor=strategy)\n",
        encoding="utf-8",
    )
    report = run_analysis(["src"], root=tmp_path, only_rules=["RPL004"])
    assert report.findings == []


def test_rpl006_explicit_inheritance_satisfies_contract(tmp_path):
    target = tmp_path / "src/repro/compression/custom.py"
    target.parent.mkdir(parents=True)
    target.write_text(
        "from repro.compression.spec import register\n"
        "from repro.compression.thc import THCCompressor\n"
        "@register('x')\n"
        "class X(THCCompressor):\n"
        "    protocol = THCCompressor.protocol\n"
        "    _aggregate_batched = THCCompressor._aggregate_batched\n",
        encoding="utf-8",
    )
    report = run_analysis(["src"], root=tmp_path, only_rules=["RPL006"])
    assert report.findings == []


def test_rpl006_own_aggregate_matrix_is_a_batched_kernel(tmp_path):
    # Wrappers with their own dispatch (error feedback) bring the batched
    # kernel as aggregate_matrix; the protocol is still required.
    target = tmp_path / "src/repro/compression/custom.py"
    target.parent.mkdir(parents=True)
    target.write_text(
        "from repro.compression.base import AggregationScheme\n"
        "from repro.compression.spec import register\n"
        "@register('x')\n"
        "class X(AggregationScheme):\n"
        "    def protocol(self, num_coordinates, ctx):\n"
        "        return ()\n"
        "    def aggregate_matrix(self, matrix, ctx):\n"
        "        return matrix\n"
        "@register('y')\n"
        "class Y(AggregationScheme):\n"
        "    def aggregate_matrix(self, matrix, ctx):\n"
        "        return matrix\n",
        encoding="utf-8",
    )
    report = run_analysis(["src"], root=tmp_path, only_rules=["RPL006"])
    assert [finding.line for finding in report.findings] == [10]  # class Y
    assert "protocol" in report.findings[0].message


def test_rpl001_scope_covers_fleet_paths():
    # Fabric generators and the distributional cluster description are
    # pricing inputs: wall-clock or RNG in them would break sweep memo
    # reproducibility, so the determinism rule must scope them.
    config = LintConfig()
    scope = config.paths_for("RPL001")
    assert scope_matches("src/repro/topology/fabric.py", scope)
    assert scope_matches("src/repro/simulator/cluster.py", scope)


def test_rpl003_scope_covers_cluster_cache_key():
    # The distributional cluster's cache_key() is the sweep/service identity;
    # it must stay inside the cache-key hygiene rule's scope.
    assert scope_matches("src/repro/simulator/cluster.py", LintConfig().paths_for("RPL003"))


def test_fleet_modules_lint_clean():
    # The real fleet-path modules stay clean under the full default rule set.
    repo_root = Path(__file__).resolve().parents[2]
    report = run_analysis(
        [
            "src/repro/topology",
            "src/repro/simulator/cluster.py",
            "src/repro/experiments/fleet.py",
        ],
        root=repo_root,
    )
    assert report.findings == []
