"""Mutant catalog: deliberate faults that named tests must catch.

    python tests/mutants.py

Each mutant names a file, a snippet that must occur in it exactly once, the
replacement, and the test ids that must fail. The runner copies `src/`,
`tests/` and `pyproject.toml` into a temporary directory, first runs the union
of the listed tests there unchanged (they must pass), then applies each mutant
to a fresh copy and runs its tests with `pytest -x`. It exits 1 if a mutant
survives, if an entry is stale (its snippet does not occur exactly once), or
if the unchanged tests fail. The file is not named `test_*`, so the tier-1
suite does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "edge-rule-1-plus", "src/kegraph/criticality.py",
        "if 2 + _alpha_of_mask(masks, full & ~(masks[u]",
        "if 1 + _alpha_of_mask(masks, full & ~(masks[u]",
        ("tests/test_criticality.py::TestAlphaCriticalEdges::test_against_oracle",),
    ),
    Mutant(
        "pendant-rule-degree-2", "src/kegraph/solvers.py",
        "if d <= 1 and low_v < 0:",
        "if d <= 2 and low_v < 0:",
        ("tests/test_solvers.py::TestPendantRule::test_sub_masks_match_subset_oracle",),
    ),
    Mutant(
        "prune-at-best-plus-1", "src/kegraph/solvers.py",
        "if size + mask.bit_count() <= best:",
        "if size + mask.bit_count() <= best + 1:",
        ("tests/test_solvers.py::TestStabilityNumber::test_large_bipartite_against_koenig",),
    ),
    Mutant(
        "no-perfect-size-test", "src/kegraph/solvers.py",
        "    if 2 * witness.size < g.n:\n        return 0\n",
        "",
        ("tests/test_solvers.py::TestPerfectMatchingStatus::test_count_matches_oracle_saturated",),
    ),
    Mutant(
        "eq-n-without-2", "src/kegraph/analysis.py",
        "xi + 2 * eta + sigma == n",
        "xi + eta + sigma == n",
        ("tests/test_analysis.py::TestTh2::test_consistent_on_samples",),
    ),
    Mutant(
        "no-repeated-id-guard", "src/kegraph/harness/fuzz.py",
        "    if repeated:\n",
        "    if False:\n",
        ("tests/test_harness.py::TestFuzz::test_repeated_check_id",),
    ),
    Mutant(
        "l3-on-g-not-g0", "src/kegraph/harness/checks.py",
        "(lambda g, caps: _p3(g_zero(g, caps)[0], caps))",
        "(lambda g, caps: _p3(g, caps))",
        ("tests/test_harness.py::TestCheckCatalog::test_every_check_runs_on_every_fixture",),
    ),
    Mutant(
        "ke-synth-check-at-default-caps", "src/kegraph/harness/generators.py",
        "is_koenig_egervary(g, replace(DEFAULT_CAPS, alpha=max(DEFAULT_CAPS.alpha, n)))",
        "is_koenig_egervary(g, DEFAULT_CAPS)",
        ("tests/test_harness.py::TestGenerators::test_ke_synth_always_ke_and_connected",),
    ),
    Mutant(
        "no-n2-guard", "src/kegraph/harness/generators.py",
        "        if self.n2 < 0:\n",
        "        if False:\n",
        (
            "tests/test_harness.py::TestGenerators::test_errors",
            "tests/test_cli.py::TestFuzzCommand::test_negative_n2_exits_2",
        ),
    ),
    Mutant(
        "no-kind-n2-guard", "src/kegraph/harness/generators.py",
        '        if self.n2 and self.kind != "bipartite":\n',
        "        if False:\n",
        (
            "tests/test_harness.py::TestGenerators::test_errors",
            "tests/test_cli.py::TestFuzzCommand::test_n2_on_a_kind_that_ignores_it_exits_2",
        ),
    ),
    Mutant(
        "no-kind-p-guard", "src/kegraph/harness/generators.py",
        "        if self.p is not None and self.kind not in P_KINDS:\n",
        "        if False:\n",
        (
            "tests/test_harness.py::TestGenerators::test_config_is_checked_when_made",
            "tests/test_cli.py::TestFuzzCommand::test_p_on_a_kind_that_ignores_it_exits_2",
        ),
    ),
    Mutant(
        "config-p-range-unchecked", "src/kegraph/harness/generators.py",
        "        if self.p is not None and not 0.0 <= self.p <= 1.0:\n",
        "        if False:\n",
        (
            "tests/test_harness.py::TestGenerators::test_errors",
            "tests/test_harness.py::TestGenerators::test_config_is_checked_when_made",
        ),
    ),
    Mutant(
        "fixture-edge-dropped", "src/kegraph/harness/fixtures.py",
        "[(0, 5), (0, 4), (1, 5)",
        "[(0, 4), (1, 5)",
        ("tests/test_golden.py::test_cli_outputs",),
    ),
    Mutant(
        "forced-search-from-u-only", "src/kegraph/solvers.py",
        " or _blossom_augment(adj, match, v)",
        "",
        ("tests/test_criticality.py::TestMuCriticalEdges::test_against_oracle",),
    ),
    Mutant(
        "no-drop-branch", "src/kegraph/solvers.py",
        "            mask &= ~(1 << max_v)\n",
        "            break\n",
        ("tests/test_analysis.py::TestRecognition::test_definition",),
    ),
    Mutant(
        "omega-sibling-first", "src/kegraph/solvers.py",
        "            stack.append((prefix, prefix_mask, allowed, need))\n"
        "            stack.append((prefix + (v,), prefix_mask | (1 << v), allowed & ~masks[v], need - 1))\n",
        "            stack.append((prefix + (v,), prefix_mask | (1 << v), allowed & ~masks[v], need - 1))\n"
        "            stack.append((prefix, prefix_mask, allowed, need))\n",
        ("tests/test_solvers.py::TestOmegaEnumeration::test_against_subset_oracle",),
    ),
    Mutant(
        "odd-path-keeps-marks", "src/kegraph/harness/checks.py",
        "            on_path.remove(u)\n",
        "",
        ("tests/test_harness.py::TestOddPath::test_against_brute_force",),
    ),
    Mutant(
        "crash-exits-1", "src/kegraph/cli.py",
        "        return 4\n",
        "        return 1\n",
        (
            "tests/test_cli.py::TestInternalError::test_invariant_error_in_decompose_exits_4",
            "tests/test_cli.py::TestInternalError::test_memory_error_exits_4",
            "tests/test_cli.py::TestInternalError::test_crashing_check_makes_fuzz_exit_4",
        ),
    ),
    Mutant(
        "unique-pm-iff-any-forced-edge", "src/kegraph/solvers.py",
        "return 1 if forced_matching_edges(g) == witness.edges else 2",
        "return 1 if forced_matching_edges(g) else 2",
        ("tests/test_solvers.py::TestPerfectMatchingStatus::test_sparse_gnp_eleven_to_fourteen",),
    ),
    Mutant(
        "every-perfect-matching-unique", "src/kegraph/solvers.py",
        "return 1 if forced_matching_edges(g) == witness.edges else 2",
        "return 1",
        ("tests/test_solvers.py::TestPerfectMatchingStatus::test_paths_and_cycles",),
    ),
    Mutant(
        "ck2-gates-swapped", "src/kegraph/harness/checks.py",
        'it is K2", _KE, _CONNECTED)',
        'it is K2", _CONNECTED, _KE)',
        ("tests/test_harness.py::TestCheckCatalog::test_gate_reasons",),
    ),
    Mutant(
        "c4-no-edge-gate", "src/kegraph/harness/checks.py",
        '    ("needs a tree with at least one edge", lambda g, caps: g.m > 0),\n',
        "",
        ("tests/test_harness.py::TestCheckCatalog::test_c4_k1_not_applicable",),
    ),
    Mutant(
        "p3-unguarded-is-p3", "src/kegraph/harness/checks.py",
        'no gate")(_t1ii)',
        'no gate")(_p3)',
        ("tests/test_harness.py::TestCheckCatalog::test_negative_controls_are_their_gated_bodies",),
    ),
    Mutant(
        "eta-from-forced-edges", "src/kegraph/analysis.py",
        "eta = len(alpha_critical_edges(g, caps))",
        "eta = len(forced_matching_edges(g))",
        ("tests/test_analysis.py::TestParameterReport::test_w1_breaks_every_inequality",),
    ),
    Mutant(
        "counts-eta-before-xi", "src/kegraph/analysis.py",
        "xi=stable.xi, eta=eta,",
        "eta=eta, xi=stable.xi,",
        ("tests/test_analysis.py::TestTh2::test_star_all_true",),
    ),
    Mutant(
        "bipartite-colours-one-component", "src/kegraph/graph.py",
        "    for root in range(g.n):\n        if color[root] != -1:",
        "    for root in range(min(g.n, 1)):\n        if color[root] != -1:",
        ("tests/test_graph.py::TestPredicates::test_bipartite_matches_oracle",),
    ),
    Mutant(
        "graph-degree-restored", "src/kegraph/graph.py",
        "    def m(self) -> int:\n        return len(self.edges)\n",
        "    def m(self) -> int:\n        return len(self.edges)\n\n"
        "    def degree(self, v: int) -> int:\n        return len(self.adj[v])\n",
        ("tests/test_solvers.py::TestSolverCaps::test_every_public_function_and_method_is_read_in_src",),
    ),
    Mutant(
        "fixture-expected-restored", "src/kegraph/harness/fixtures.py",
        "    letters: tuple[str, ...] = ()\n",
        "    letters: tuple[str, ...] = ()\n    expected: dict | None = None\n",
        ("tests/test_solvers.py::TestSolverCaps::test_every_dataclass_field_is_read_in_src",),
    ),
)


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", dest)


def _pytest(tree: Path, tests: tuple[str, ...]) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=tree, env=env, capture_output=True).returncode


def run(mutant: Mutant, scratch: Path) -> str:
    """'killed', 'survived', 'stale', or 'error' (pytest could not run the tests)."""
    tree = scratch / mutant.name
    _copy(tree)
    target = tree / mutant.path
    text = target.read_text()
    if text.count(mutant.snippet) != 1:
        return "stale"
    target.write_text(text.replace(mutant.snippet, mutant.replacement))
    code = _pytest(tree, mutant.tests)
    return {0: "survived", 1: "killed"}.get(code, "error")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="kegraph-mutants-") as tmp:
        scratch = Path(tmp)
        baseline = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        _copy(scratch / "unmutated")
        if _pytest(scratch / "unmutated", baseline) != 0:
            print("the listed tests fail on the unmutated code", file=sys.stderr)
            return 1
        outcomes = {m.name: run(m, scratch) for m in MUTANTS}
    for name, outcome in outcomes.items():
        print(f"{outcome:8}  {name}")
    return 0 if set(outcomes.values()) == {"killed"} else 1


if __name__ == "__main__":
    sys.exit(main())
