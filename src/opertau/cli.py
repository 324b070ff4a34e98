"""Command-line interface: deterministic JSON reports for every subcommand.

Exit codes: 0 success, 2 usage or parse error, 3 precondition violation,
4 internal invariant breach.  Each report carries only the settings its
command used: ``root`` the order and its root's depth, ``bc-curve`` the order,
``kdv-flow`` and ``kdv-conserved`` the order when they build the default
operator, ``krichever`` the window, ``main-check`` the window and
degree, ``tau`` its frame's window and the degree, ``toda-tau``
the degree, ``hirota-check`` the degree it checked, ``hecke-verify`` the n,
N and z-range of the tensor window it checked; ``miura`` uses none.

Each command imports the modules it runs inside its branch of ``_run``, so
a run loads and compiles only those, besides ``errors`` and ``psido`` (the
``--depth`` default): ``hecke-verify`` loads no JSON codec, no Grassmannian
and no tau.  An input file that is missing, a directory or not UTF-8 text
exits 2 with one ``cannot read input`` line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import InvariantViolation, OpertauError, ParseError
from .psido import DEFAULT_TAIL_DEPTH


def _int_from(lo: int):
    """argparse type: an int no smaller than lo."""
    def parse(text: str) -> int:
        if int(text) < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {text}")
        return int(text)
    parse.__name__ = "int"
    return parse


def _add_common(p, suppress: bool) -> None:
    d = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
    p.add_argument("--order", type=_int_from(1), default=d(12), help="series truncation order")
    p.add_argument("--depth", type=int, default=d(DEFAULT_TAIL_DEPTH), help="tail depth of root")
    p.add_argument(
        "--window", type=str, default=d("-8,8"),
        help="Grassmannian window as lo,hi (use --window=-8,8)",
    )
    p.add_argument("--degree", type=_int_from(0), default=d(8), help="weighted tau degree")
    if suppress:
        p.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                       help="machine-readable output")
    else:
        p.add_argument("--json", action="store_true", help="machine-readable output")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="opertau",
        description="exact computations with microdifferential operators, "
        "KdV flows, tau functions and Hecke structures",
    )
    _add_common(p, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common, suppress=True)
    sub = p.add_subparsers(dest="command", required=True, parser_class=(
        lambda **kw: argparse.ArgumentParser(parents=[common], **kw)
    ))

    s = sub.add_parser("root", help="Schur n-th root of a monic operator")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("expression")

    s = sub.add_parser("miura", help="Miura transform of chi data")
    s.add_argument("file", help="JSON MiuraOper")

    s = sub.add_parser("kdv-flow", help="Lax right-hand side of a flow")
    s.add_argument("--n", type=_int_from(1), default=2)
    s.add_argument("--r", type=int, required=True)
    s.add_argument("file", nargs="?", help="JSON ScalarOper; default d^n + t")

    s = sub.add_parser("kdv-conserved", help="conserved density res L^{s/n}")
    s.add_argument("--n", type=_int_from(1), default=2)
    s.add_argument("--s", type=int, required=True, dest="s_index")
    s.add_argument("file", nargs="?", help="JSON ScalarOper; default d^n + t")

    s = sub.add_parser("tau", help="Pluecker-Schur tau of a frame")
    s.add_argument("--frame", required=True, help="JSON frame file")

    s = sub.add_parser("hirota-check", help="KP Hirota residual of a tau")
    s.add_argument("--tau", required=True, help="JSON TimesSeries file")

    s = sub.add_parser("toda-tau", help="two-sided Toda tau from pairs")
    s.add_argument("--pairs", required=True, help="JSON [[a,p,q], ...] file")
    s.add_argument("--cutoff", type=int, default=6)

    s = sub.add_parser("hecke-verify", help="verify affine Hecke relations")
    s.add_argument("--n", type=int, default=2)
    s.add_argument("--N", type=int, default=3, dest="factors")
    s.add_argument("--zrange", type=int, default=2)

    s = sub.add_parser("bc-curve", help="Burchnall-Chaundy relation of a pair")
    s.add_argument("--p", required=True, help="file with operator expression")
    s.add_argument("--q", required=True, help="file with operator expression")
    s.add_argument("--bound", type=int, default=8)

    s = sub.add_parser("krichever", help="Grassmannian point of an oper")
    s.add_argument("--oper", required=True, help="JSON ScalarOper file")

    s = sub.add_parser("main-check", help="Miura/flag/Grassmannian round trip")
    s.add_argument("--miura", required=True, help="JSON MiuraOper file")

    return p


def _print(args, report: dict) -> None:
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for k in sorted(report):
            print(f"{k}: {report[k]}")


def _load(path: str) -> dict:
    def unique(pairs: list) -> dict:
        keys = [k for k, _ in pairs]
        if len(set(keys)) < len(keys):
            raise ParseError(f"invalid JSON in {path}: repeated key among {keys}")
        return dict(pairs)

    try:
        return json.loads(_read(path), object_pairs_hook=unique)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON in {path}: {e.msg}", e.lineno, e.colno) from e


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:  # name the file, as an OSError does
        raise UnicodeDecodeError(e.encoding, e.object, e.start, e.end,
                                 f"{e.reason} in {path}") from None


def _window(args) -> tuple[int, int]:
    try:
        lo, hi = (int(x) for x in args.window.split(","))
    except ValueError as e:
        raise ParseError(f"--window must be lo,hi, got {args.window!r}") from e
    return lo, hi


def _default_oper(n: int, order: int):
    from .oper import ScalarOper
    from .series import TruncSeries, tpoly
    qs = [TruncSeries.zero(order) for _ in range(n - 1)]
    qs.append(tpoly({1: -1}, order))  # L = d^n + t
    return ScalarOper(n, tuple(qs))


def _flow_oper(args):
    """The operator of a flow command, from its file or the default d^n + t,
    with the settings used to get it."""
    if args.file:
        from .jsonio import scalar_oper_from_json
        return scalar_oper_from_json(_load(args.file)), {}
    return _default_oper(args.n, args.order), {"order": args.order}


def _run(args) -> int:
    if args.command == "root":
        from .jsonio import psido_to_json
        from .parser import parse_operator, print_operator
        from .psido import nth_root, power
        A = parse_operator(args.expression, order=args.order)
        R = nth_root(A, args.n, args.depth)
        back = power(R, args.n, args.depth)
        _print(args, {
            "root": psido_to_json(R),
            "text": print_operator(R),
            "recomposition_matches": back.agrees(A),
            "order": args.order,
            "depth": R.depth,
        })
        return 0
    if args.command == "miura":
        from .jsonio import miura_from_json, scalar_oper_to_json
        from .oper import miura_transform
        M = miura_from_json(_load(args.file))
        S = miura_transform(M)
        _print(args, {"scalar_oper": scalar_oper_to_json(S)})
        return 0
    if args.command == "kdv-flow":
        from .jsonio import series_to_json
        from .kdv import lax_rhs
        S, used = _flow_oper(args)
        rhs = lax_rhs(S, args.r)
        _print(args, {
            "stationary": rhs.operator.is_zero,
            "delta_q": [series_to_json(s) for s in rhs.delta_q],
            **used,
        })
        return 0
    if args.command == "kdv-conserved":
        from .jsonio import series_to_json
        from .kdv import conserved_density
        S, used = _flow_oper(args)
        rho = conserved_density(S, args.s_index)
        _print(args, {"density": series_to_json(rho), **used})
        return 0
    if args.command == "tau":
        from .grass import tau_schur
        from .jsonio import frame_from_json, times_to_json
        W = frame_from_json(_load(args.frame))
        tau = tau_schur(W, args.degree)
        _print(args, {
            "tau": times_to_json(tau),
            "virtdim": W.virtdim,
            "window": list(W.window),
            "degree": args.degree,
        })
        return 0
    if args.command == "hirota-check":
        from .grass import hirota_residual
        from .jsonio import times_from_json, times_to_json
        tau = times_from_json(_load(args.tau))
        bound = tau.bound if tau.bound is not None else args.degree + 4
        residual = hirota_residual(tau, bound - 4)
        _print(
            args,
            {
                "residual": times_to_json(residual),
                "is_zero": residual.is_zero,
                "checked_degree": bound - 4,
            },
        )
        return 0
    if args.command == "toda-tau":
        from .jsonio import pairs_from_json, times_to_json
        from .toda import toda_tau
        pairs = pairs_from_json(_load(args.pairs))
        tau = toda_tau(pairs, args.degree, cutoff=args.cutoff)
        _print(args, {
            "tau": times_to_json(tau), "cutoff": args.cutoff, "degree": args.degree,
        })
        return 0
    if args.command == "hecke-verify":
        from .hecke import TensorWindow, verify_relations
        win = TensorWindow(args.n, args.factors, (-args.zrange, args.zrange))
        results = verify_relations(win)
        report = {name: ok for name, ok in results}
        ok = all(report.values())
        used = {"n": win.n, "N": win.N, "zrange": list(win.zrange)}
        if args.json:
            _print(args, {"relations": report, "all_hold": ok, **used})
        else:
            print(f"n: {win.n}  N: {win.N}  zrange: {win.zrange[0]},{win.zrange[1]}")
            for name, good in results:
                print(f"{'PASS' if good else 'FAIL'}  {name}")
            print(f"all_hold: {ok}")
        return 0 if ok else 4
    if args.command == "bc-curve":
        from .jsonio import fraction_to_json
        from .krichever import bc_relation
        from .parser import parse_operator
        P, Q = (parse_operator(_read(f), order=args.order) for f in (args.p, args.q))
        rel = bc_relation(P, Q, args.bound)
        report = {"relation": None} if rel is None else {
            "relation": [
                {"x": a, "y": b, "coef": fraction_to_json(c)}
                for (a, b), c in rel.coeffs
            ],
            "text": repr(rel),
        }
        _print(args, {**report, "order": args.order})
        return 0
    if args.command == "krichever":
        from .jsonio import frame_to_json, scalar_oper_from_json
        from .krichever import krichever_point, n_reduction_holds
        S = scalar_oper_from_json(_load(args.oper))
        window = _window(args)
        W = krichever_point(S, window)
        _print(args, {
            "frame": frame_to_json(W),
            "virtdim": W.virtdim,
            "n_reduced": n_reduction_holds(W, S.n),
            "window": list(window),
        })
        return 0
    if args.command == "main-check":
        from .jsonio import miura_from_json
        from .krichever import main_theorem_check
        M = miura_from_json(_load(args.miura))
        report = main_theorem_check(M, _window(args), args.degree)
        _print(args, {
            "frames_match": report.frames_match,
            "hirota_zero": report.hirota_zero,
            "reduction_constant": report.reduction_constant,
            "annihilators_transported": report.annihilators_transported,
            "all_passed": report.all_passed,
            **report.details,
            "window": list(report.window),
            "degree": report.degree,
        })
        return 0 if report.all_passed else 4
    raise InvariantViolation(f"unhandled command {args.command}")


def run(argv: list[str]) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return _run(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except InvariantViolation as e:
        print(f"internal invariant breach: {e}", file=sys.stderr)
        return 4
    except OpertauError as e:
        print(f"precondition violated: {e.__class__.__name__}: {e}", file=sys.stderr)
        return 3
    except (FileNotFoundError, IsADirectoryError, UnicodeDecodeError) as e:
        print(f"cannot read input: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
