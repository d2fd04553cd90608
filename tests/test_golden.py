"""Pinned output digests: the CLI, four fuzz campaigns and the check catalog.

Every case is hashed (exit code, stdout and stderr of a CLI command; the
verdict dicts of all checks on one graph under one caps value) and compared
with `tests/golden.json`. A change that alters output on purpose rewrites the
file and says so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from kegraph import DEFAULT_CAPS, Graph, SolverCaps
from kegraph.cli import main
from kegraph.harness import KINDS, MIN_N, P_KINDS, GeneratorConfig, check, check_ids, fixtures, generate

GOLDEN = Path(__file__).with_name("golden.json")

# Below every default vertex cap, so each cap turns some checks NotApplicable.
SMALL_CAPS = SolverCaps(alpha=12, omega_vertices=9, omega_sets=6, bhp=7)
FUZZ_CAMPAIGNS = (("gnp", 10), ("ke", 14), ("tree", 16), ("bipartite", 6))
GRAPH_COMMANDS = (
    ("analyze", "json"), ("analyze", "text"), ("analyze", "dot"),
    ("critical", "json"), ("critical", "text"),
    ("decompose", "json"), ("decompose", "text"),
    ("verify", "json"), ("verify", "text"),
)


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _run_cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return _digest([code, out.getvalue(), err.getvalue()])


def cli_digests() -> dict[str, str]:
    all_ids = ",".join(check_ids())
    out = {}
    for name in fixtures():
        for command, fmt in GRAPH_COMMANDS:
            argv = [command, "--fixture", name, "--format", fmt]
            if command == "verify":
                argv += ["--checks", all_ids]
            out[f"{command} {name} {fmt}"] = _run_cli(argv)
    return out


def fuzz_digests() -> dict[str, str]:
    all_ids = ",".join(check_ids())
    return {
        f"fuzz {gen} {n}": _run_cli(
            ["fuzz", "--gen", gen, "--n", str(n), "--trials", "40", "--seed", "3", "--checks", all_ids]
        )
        for gen, n in FUZZ_CAMPAIGNS
    }


def _corpus() -> dict[str, Graph]:
    graphs = {f"fixture {name}": fx.graph for name, fx in fixtures().items()}
    for kind in KINDS:
        for n in range(MIN_N[kind], 15):
            graphs[f"{kind} {n}"] = generate(GeneratorConfig(kind, n, p=0.3 if kind in P_KINDS else None, seed=n))
    return graphs


def verdict_digests() -> dict[str, str]:
    out = {}
    for caps_name, caps in (("default", DEFAULT_CAPS), ("small", SMALL_CAPS)):
        for name, g in _corpus().items():
            out[f"verdicts {caps_name} {name}"] = _digest(
                [check(g, cid, caps).to_dict() for cid in check_ids()]
            )
    return out


SECTIONS = {"cli": cli_digests, "fuzz": fuzz_digests, "verdicts": verdict_digests}


def _assert_section(section: str) -> None:
    expected = json.loads(GOLDEN.read_text())[section]
    actual = SECTIONS[section]()
    changed = sorted(k for k in expected.keys() | actual.keys() if expected.get(k) != actual.get(k))
    assert not changed, f"{len(changed)} of {len(expected)} {section} outputs changed: {changed[:10]}"


def test_cli_outputs():
    _assert_section("cli")


def test_fuzz_outputs():
    _assert_section("fuzz")


def test_verdicts():
    _assert_section("verdicts")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    GOLDEN.write_text(json.dumps({s: fn() for s, fn in SECTIONS.items()}, indent=1, sort_keys=True) + "\n")
