"""
Command-line front end.

Subcommands: class, diagram, minmax, hull, cover, family, verify, hasse.
Results go to stdout; errors are emitted as one JSON object on stderr.
Exit codes: 0 success, 1 domain error, 2 resource-cap error, 3 usage.

A shell call starts a fresh interpreter, so this module imports only
what the commands run: no command but ``verify`` loads ``hecke`` or
numpy, ``verify`` loads the oracles when it runs, and argparse is
imported when the parser is first built.
"""

from __future__ import annotations

import json
import sys

from .classes import class_to_json, equiv_class, hasse_dot
from .compositions import validate_composition
from .descent_diagrams import (
    build_D_S_rho,
    build_D_sigma_S,
    lower_minmax,
    upper_minmax,
)
from .diagrams import Diagram, diagram_to_json, enumerate_ST, reading, st_leq
from .errors import DomainError, ResourceCapError
from .hulls import hull_or_cover
from .permutations import (
    LEFT,
    format_perm,
    parse_perm,
    parse_subset,
    weak_interval,
)
from .tableaux import FAMILY_MODULES, family_class

USAGE_EXIT = 3

# The keys of ``verify.SUITES``, in order.  Kept here so that building the
# parser does not import the oracles: only ``wol verify`` loads them.
SUITE_NAMES = ("perm", "poset", "diagram", "class", "family", "module")


def parse_alpha(text: str) -> tuple[int, ...]:
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    try:
        parts = [int(p) for p in text.replace(" ", "").split(",") if p]
    except ValueError:
        raise DomainError(f"not a composition: {text!r}") from None
    return validate_composition(parts)


def parse_cells(text: str) -> frozenset[tuple[int, int]]:
    """The cells of ``--cells``: a JSON list of distinct [column, row] pairs
    of ints (not bools, floats or strings); anything else is a DomainError."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError):
        data = None
    if not isinstance(data, list) or not all(
        isinstance(c, list) and len(c) == 2 and all(type(v) is int for v in c) for c in data
    ):
        raise DomainError(f"--cells is not a JSON list of [column, row] pairs of ints: {text!r}")
    cells = frozenset(map(tuple, data))
    if len(cells) != len(data):
        raise DomainError(f"--cells repeats a cell: {text!r}")
    return cells


def format_alpha(alpha) -> str:
    return "(" + ",".join(str(a) for a in alpha) + ")"


def _interval_json(I) -> list[str]:
    return [format_perm(I.lo), format_perm(I.hi)]


def _build_parser():
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            print(json.dumps({"error": "usage", "message": message}), file=sys.stderr)
            raise SystemExit(USAGE_EXIT)

    # The docstring's last paragraph is about this module, not for --help.
    parser = _Parser(prog="wol", description=__doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("class", help="equivalence class of a left interval")
    p.add_argument("--lo", required=True)
    p.add_argument("--hi", required=True)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--format", choices=("text", "json", "dot"), default="json")

    p = sub.add_parser("diagram", help="descent-interval diagram")
    p.add_argument("--S", required=True)
    p.add_argument("--rho")
    p.add_argument("--sigma")
    p.add_argument("--format", choices=("text", "json"), default="json")

    p = sub.add_parser("minmax", help="class min and max for a descent interval")
    p.add_argument("--S", required=True)
    p.add_argument("--rho")
    p.add_argument("--sigma")

    p = sub.add_parser("hull", help="injective hull of a lower descent interval module")
    p.add_argument("--S")
    p.add_argument("--rho")
    p.add_argument("--family", choices=("V", "X", "Shat", "Q"))
    p.add_argument("--alpha")

    p = sub.add_parser("cover", help="projective cover of an upper descent interval module")
    p.add_argument("--S")
    p.add_argument("--sigma")
    p.add_argument("--family", choices=("RV", "RX", "RShat", "Q"))
    p.add_argument("--alpha")

    p = sub.add_parser("family", help="closed-form class summary of a module family")
    p.add_argument("--kind", required=True, choices=FAMILY_MODULES)
    p.add_argument("--alpha", required=True)

    p = sub.add_parser("verify", help="run oracle sweeps")
    p.add_argument("--suite", default="all", choices=("all", *SUITE_NAMES))
    p.add_argument("--nmax", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("hasse", help="DOT Hasse diagram of a class or of ST(D)")
    p.add_argument("--lo")
    p.add_argument("--hi")
    p.add_argument("--cells", help='diagram cells as JSON, e.g. "[[1,1],[2,1]]"')
    p.add_argument("--format", choices=("dot",), default="dot")
    return parser


def _cmd_class(args) -> int:
    I = weak_interval(parse_perm(args.lo), parse_perm(args.hi), LEFT)
    try:
        C = equiv_class(I, cap=args.cap)
    except ResourceCapError as exc:
        if args.cap is not None:
            exc.raise_with = "--cap"
        raise
    if args.format == "json":
        print(class_to_json(C))
    elif args.format == "dot":
        print(hasse_dot(C))
    else:
        print(f"class of {I}: {C.size} members, xi = {format_perm(C.xi)}")
        for k, J in enumerate(C.members):
            marks = "".join(
                m for m, idx in (("min", C.min_index), ("max", C.max_index)) if k == idx
            )
            print(f"  [{k}] {J} {marks}".rstrip())
    return 0


def _lower_or_upper(args):
    if (args.rho is None) == (args.sigma is None):
        raise DomainError("give exactly one of --rho (lower) or --sigma (upper)")
    S = parse_subset(args.S)
    if args.rho is not None:
        return "lower", S, parse_perm(args.rho)
    return "upper", S, parse_perm(args.sigma)


def _cmd_diagram(args) -> int:
    kind, S, w = _lower_or_upper(args)
    D = build_D_S_rho(S, w) if kind == "lower" else build_D_sigma_S(w, S).diagram
    if args.format == "json":
        print(diagram_to_json(D))
    else:
        for y in range(D.n_rows, 0, -1):
            print("".join("#" if (x, y) in D.cells else "." for x in range(1, D.n_cols + 1)))
    return 0


def _cmd_minmax(args) -> int:
    kind, S, w = _lower_or_upper(args)
    lo, hi = lower_minmax(S, w) if kind == "lower" else upper_minmax(w, S)
    print(json.dumps({"min": _interval_json(lo), "max": _interval_json(hi)}))
    return 0


def _cmd_hull_or_cover(args) -> int:
    if args.family is not None:
        if args.alpha is None:
            raise DomainError("--family needs --alpha")
        kind = f"Q-{args.command}" if args.family == "Q" else args.family
        result = hull_or_cover(kind, alpha=parse_alpha(args.alpha))
    elif args.command == "hull":
        if args.S is None or args.rho is None:
            raise DomainError("hull needs --S and --rho, or --family and --alpha")
        result = hull_or_cover("lower", S=parse_subset(args.S), rho=parse_perm(args.rho))
    else:
        if args.S is None or args.sigma is None:
            raise DomainError("cover needs --sigma and --S, or --family and --alpha")
        result = hull_or_cover("upper", sigma=parse_perm(args.sigma), S=parse_subset(args.S))
    print(
        json.dumps(
            {
                "kind": result.kind,
                "interval": _interval_json(result.interval),
                "lower_set": sorted(result.lower_set),
                "upper_set": sorted(result.upper_set),
                "projective_indecomposable": result.is_projective_indecomposable,
            }
        )
    )
    return 0


def _cmd_family(args) -> int:
    summary = family_class(args.kind, parse_alpha(args.alpha))
    print(
        json.dumps(
            {
                "family": summary.family,
                "alpha": format_alpha(summary.alpha),
                "min": _interval_json(summary.min_interval),
                "max": _interval_json(summary.max_interval),
                "size": summary.size,
                "diagram": json.loads(diagram_to_json(summary.diagram)),
            }
        )
    )
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_suite

    rows = run_suite(args.suite, args.nmax, args.seed)
    width = max(len(name) for name, _, _ in rows)
    failures = 0
    for name, ok, detail in rows:
        status = "PASS" if ok else "FAIL"
        failures += not ok
        print(f"{status}  {name:<{width}}  {detail}")
    print(f"{len(rows) - failures}/{len(rows)} checks passed")
    return 1 if failures else 0


def _cmd_hasse(args) -> int:
    if args.cells is not None:
        D = Diagram(parse_cells(args.cells))
        tabs = enumerate_ST(D)
        lines = ["digraph hasse {"]
        words = [format_perm(reading(T, "TBLR")) for T in tabs]
        for k, w in enumerate(words):
            lines.append(f'  t{k} [label="{w}"];')
        for a, T in enumerate(tabs):
            for b, U in enumerate(tabs):
                if a != b and st_leq(T, U):
                    if not any(
                        c != a and c != b and st_leq(T, tabs[c]) and st_leq(tabs[c], U)
                        for c in range(len(tabs))
                    ):
                        lines.append(f"  t{a} -> t{b};")
        lines.append("}")
        print("\n".join(lines))
        return 0
    if args.lo is None or args.hi is None:
        raise DomainError("hasse needs --lo/--hi or --cells")
    C = equiv_class(weak_interval(parse_perm(args.lo), parse_perm(args.hi), LEFT))
    print(hasse_dot(C))
    return 0


_COMMANDS = {
    "class": _cmd_class,
    "diagram": _cmd_diagram,
    "minmax": _cmd_minmax,
    "hull": _cmd_hull_or_cover,
    "cover": _cmd_hull_or_cover,
    "family": _cmd_family,
    "verify": _cmd_verify,
    "hasse": _cmd_hasse,
}


# Built on the first run() and reused: parse_args keeps no state between
# calls, and importing wol without running the CLI does not pay for it.
_parser = None


def run(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    args = _parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ResourceCapError as exc:
        payload = {"error": "resource", "message": str(exc)}
        if exc.count is not None:
            payload["partial_count"] = exc.count
        print(json.dumps(payload), file=sys.stderr)
        return 2
    except DomainError as exc:
        print(json.dumps({"error": "domain", "message": str(exc)}), file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
