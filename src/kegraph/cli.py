"""Command-line front end.

Exit codes: 0 success / all checks pass, 1 at least one check failed or
stdout was closed early, 2 input or precondition error, 3 capacity (size cap)
exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .analysis import ke_decompose, parameter_report
from .criticality import criticality_report
from .errors import CapacityError, InputError, PreconditionError
from .graph import Graph, format_edge_list, parse_edge_list
from .harness import (
    CHECK_STATEMENTS,
    FAIL,
    GeneratorConfig,
    check,
    check_ids,
    fixtures,
    fuzz,
)
from .solvers import DEFAULT_CAPS, SolverCaps

_GEN_KIND = {"tree": "tree", "bipartite": "bipartite", "ke": "ke_synth", "gnp": "gnp"}


def _load_graph(args: argparse.Namespace) -> Graph:
    if getattr(args, "input", None) and getattr(args, "fixture", None):
        raise InputError("give either --input or --fixture, not both")
    if getattr(args, "input", None):
        try:
            text = Path(args.input).read_text()
        except OSError as exc:
            raise InputError(f"cannot read {args.input}: {exc}") from None
        return parse_edge_list(text)
    if getattr(args, "fixture", None):
        table = fixtures()
        if args.fixture not in table:
            raise InputError(f"unknown fixture {args.fixture!r}; available: {', '.join(table)}")
        return table[args.fixture].graph
    raise InputError("an input graph is required: --input PATH or --fixture NAME")


def _caps(args: argparse.Namespace) -> SolverCaps:
    if getattr(args, "max_n", None):
        return DEFAULT_CAPS.raised_to(args.max_n)
    return DEFAULT_CAPS


def _parse_checks(raw: str) -> tuple[str, ...]:
    ids = tuple(x.strip() for x in raw.split(",") if x.strip())
    if not ids:
        raise InputError("empty check list")
    known = set(check_ids())
    for cid in ids:
        if cid not in known:
            raise InputError(f"unknown check id {cid!r}; known: {', '.join(check_ids())}")
    return ids


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2))


def _to_dot(g: Graph, report) -> str:
    core = set(report.core)
    acrit = set(report.alpha_critical_edges)
    mcrit = set(report.mu_critical_edges)
    lines = ["graph G {"]
    for v in range(g.n):
        attr = ' [class="core"]' if v in core else ""
        lines.append(f"  {v}{attr};")
    for e in g.edges:
        classes = []
        if e in acrit:
            classes.append("alpha_critical")
        if e in mcrit:
            classes.append("mu_critical")
        attr = f' [class="{" ".join(classes)}"]' if classes else ""
        lines.append(f"  {e[0]} -- {e[1]}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_analyze(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    report = parameter_report(g, _caps(args))
    if args.format == "json":
        _emit_json(report.to_dict())
    elif args.format == "dot":
        print(_to_dot(g, report), end="")
    else:
        for key, value in report.to_dict().items():
            print(f"{key} = {value}")
    return 0


def _cmd_critical(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    report = criticality_report(g, _caps(args))
    payload = {
        "alpha_critical_edges": [list(e) for e in report.alpha_critical_edges],
        "eta": report.eta,
        "mu_critical_edges": [list(e) for e in report.mu_critical_edges],
        "alpha_critical_vertices": list(report.alpha_critical_vertices),
    }
    if args.format == "json":
        _emit_json(payload)
    else:
        for key, value in payload.items():
            print(f"{key} = {value}")
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    decomposition = ke_decompose(g, _caps(args))
    if args.format == "json":
        _emit_json(decomposition.to_dict())
    else:
        for key, value in decomposition.to_dict().items():
            print(f"{key} = {value}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    caps = _caps(args)
    ids = _parse_checks(args.checks)
    verdicts = [check(g, cid, caps) for cid in ids]
    if args.format == "json":
        _emit_json([v.to_dict() for v in verdicts])
    else:
        for v in verdicts:
            line = f"{v.check_id}: {v.status}"
            if v.reason:
                line += f" ({v.reason})"
            print(line)
            if v.status == FAIL and v.witness:
                print(json.dumps(v.witness, indent=2))
    return 1 if any(v.status == FAIL for v in verdicts) else 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    cfg = GeneratorConfig(
        kind=_GEN_KIND[args.gen], n=args.n, n2=args.n2, p=args.p, seed=args.seed
    )
    summary = fuzz(cfg, args.trials, _parse_checks(args.checks), _caps(args))
    _emit_json(summary.to_dict())
    return 1 if summary.total_failures else 0


def _cmd_fixtures(args: argparse.Namespace) -> int:
    table = fixtures()
    if not args.fixture:
        for name, fixture in table.items():
            note = f" -- {fixture.notes}" if fixture.notes else ""
            print(f"{name}: n={fixture.graph.n} m={fixture.graph.m}{note}")
        return 0
    if args.fixture not in table:
        raise InputError(f"unknown fixture {args.fixture!r}; available: {', '.join(table)}")
    fixture = table[args.fixture]
    comments = [f"fixture {fixture.name}"]
    if fixture.letters:
        comments.append(
            "labels: " + " ".join(f"{i}={name}" for i, name in enumerate(fixture.letters))
        )
    print(format_edge_list(fixture.graph, comments), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kegraph",
        description="Structural parameters and theorem checks for König-Egerváry graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_args(p: argparse.ArgumentParser, formats=("json", "text")) -> None:
        p.add_argument("--input", help="edge-list file ('n m' header, then 'u v' lines)")
        p.add_argument("--fixture", help="name of a built-in fixture graph")
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--max-n", type=int, default=0, help="raise the solver size caps")

    p = sub.add_parser("analyze", help="full parameter report")
    add_graph_args(p, formats=("json", "text", "dot"))
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("critical", help="alpha-/mu-critical edges and vertices")
    add_graph_args(p)
    p.set_defaults(fn=_cmd_critical)

    p = sub.add_parser("decompose", help="stable-side/matched-side split of a KE graph")
    add_graph_args(p)
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("verify", help="run theorem checks on one graph")
    add_graph_args(p)
    p.add_argument("--checks", required=True, help="comma-separated check ids")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("fuzz", help="seeded random campaign over a generator")
    p.add_argument("--gen", choices=sorted(_GEN_KIND), required=True)
    p.add_argument("--n", type=int, required=True, help="maximum vertex count per trial")
    p.add_argument("--n2", type=int, default=0, help="second side bound for bipartite")
    p.add_argument("--p", type=float, default=None, help="edge probability; omit to sweep")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checks", required=True, help="comma-separated check ids")
    p.add_argument("--max-n", type=int, default=0, help="raise the solver size caps")
    p.set_defaults(fn=_cmd_fuzz)

    p = sub.add_parser("fixtures", help="list fixtures or emit one as an edge list")
    p.add_argument("--fixture", help="emit this fixture instead of listing")
    p.set_defaults(fn=_cmd_fixtures)

    p = sub.add_parser("checks", help="list known check ids")
    p.set_defaults(fn=_cmd_checks)
    return parser


def _cmd_checks(args: argparse.Namespace) -> int:
    for cid in check_ids():
        print(f"{cid}: {CHECK_STATEMENTS[cid]}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away (`kegraph ... | head`). Point stdout at devnull
        # so the interpreter's flush at exit cannot raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except (InputError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
