"""Command line interface: construct, solve, verify, bound, approximate."""

import argparse
import sys
import traceback
from functools import cache, partial

from .approx import (
    approx_absolute,
    approx_relative,
    perturb_game,
    solve_zero_sum,
    svd_truncate,
)
from .bounds import bound_report, rank_component_bound
from .enumeration import enumerate_equilibria
from .errors import CapExceededError, GameFormatError
from .families import (
    block_game,
    identity_game,
    rank1_family,
    squared_difference_family,
)
from .gamefiles import (
    _entry,
    encode_report,
    format_decomposition_text,
    format_game_text,
    load_decomposition,
    load_game,
    parse_profile_text,
    report_json,
)
from .games import _eps_threshold, _fractions, loss
from .linalg import as_fraction, matrix_rank

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_CAP = 4
EXIT_INTERNAL = 5

# gen's family tags with their constructors, each taking the dimension d
_FAMILIES = {
    "rank1": rank1_family,
    "sqdiff": squared_difference_family,
    "identity": identity_game,
}


def _emit(text, out_path, note=None):
    """Write text to out_path (the note, if any, to stdout), or text to
    stdout (the note to stderr) so piped output stays clean."""
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if note is not None:
        print(note, file=sys.stdout if out_path else sys.stderr)


def _parse_component_spec(text, flag):
    """The constructor call a TAG:D block component names, not yet made."""
    parts = text.split(":")
    if len(parts) != 2 or parts[0] not in _FAMILIES:
        raise ValueError(
            f"{flag} must be TAG:D with TAG one of {', '.join(_FAMILIES)}"
        )
    try:
        d = int(parts[1])
    except ValueError as exc:
        raise ValueError(f"{flag}: D must be an integer") from exc
    return partial(_FAMILIES[parts[0]], d)


def cmd_gen(args):
    if args.family == "block":
        if not args.inner or not args.outer:
            raise ValueError("family 'block' needs --inner and --outer")
        if args.d is not None:
            raise ValueError("family 'block' takes no --d: its components "
                             "set the dimension")
        inner = _parse_component_spec(args.inner, "--inner")
        outer = _parse_component_spec(args.outer, "--outer")
        game = block_game(inner(), outer())
    else:
        if args.d is None:
            raise ValueError(f"family {args.family!r} needs --d")
        if args.inner or args.outer:
            raise ValueError("--inner and --outer are read by family 'block' "
                             "only")
        game = _FAMILIES[args.family](args.d)
    _emit(format_game_text(game), args.out, f"rank(A+B) = {game.rank_c}")
    return EXIT_OK


def _components_results(game, eqset):
    # rank b^T = rank b, and a common denominator does not change a rank, so
    # each is ranked over 1; equal rows (b = a^T) have one rank
    a_rows, _, bt_rows, _ = game._int_form
    rank_a = matrix_rank(rows=[[*row, 1] for row in a_rows])
    rank_b = (rank_a if bt_rows == a_rows
              else matrix_rank(rows=[[*row, 1] for row in bt_rows]))
    k = max(rank_a, rank_b)
    bound = None
    if game.m == game.n and k + 1 <= game.m:
        bound = rank_component_bound(game.m, k)
    return {
        "component_count": eqset.component_count,
        "components": [list(c) for c in eqset.components],
        "rank_a": rank_a,
        "rank_b": rank_b,
        "component_bound": bound,
    }


def cmd_solve(args):
    game = load_game(args.game)
    params = {"game": args.game, "mode": args.mode, "m": game.m, "n": game.n}
    if args.mode == "zerosum":
        report = solve_zero_sum(game)
        results = {
            "value": report.payoff1,
            "equilibrium": encode_report(report),
        }
    else:
        eqset = enumerate_equilibria(game)
        if args.mode == "components":
            results = _components_results(game, eqset)
        else:
            # entries from the rows the walk kept: no profile or report made
            results = {
                "count": len(eqset._found),
                "equilibria": [_entry(*found) for found in eqset._found],
                "component_count": eqset.component_count,
                "components": [list(c) for c in eqset.components],
            }
    _emit(report_json("solve", params, results), args.out)
    return EXIT_OK


def cmd_components(args):
    game = load_game(args.game)
    eqset = enumerate_equilibria(game)
    params = {"game": args.game, "m": game.m, "n": game.n}
    results = _components_results(game, eqset)
    _emit(report_json("components", params, results), args.out)
    return EXIT_OK


def cmd_approx(args):
    if args.decomp and args.scheme != "rel":
        raise ValueError("--decomp is read by --scheme rel only")
    game = load_game(args.game)
    eps = as_fraction(args.eps)
    params = {
        "game": args.game,
        "scheme": args.scheme,
        "eps": eps,
        "m": game.m,
        "n": game.n,
    }
    if args.scheme == "abs":
        report = approx_absolute(game, eps)
        results = {
            "equilibrium": encode_report(report),
            "target": _eps_threshold(game, eps),
        }
    else:
        decomp = load_decomposition(args.decomp) if args.decomp else None
        report = approx_relative(game, eps, decomp)
        results = {
            "equilibrium": encode_report(report),
            "rho": report.parameter,
        }
    _emit(report_json("approx", params, results), args.out)
    return EXIT_OK


def cmd_verify(args):
    game = load_game(args.game)
    profile = parse_profile_text(args.profile)
    value = loss(game, profile)
    # a bad eps fails here, before anything is printed
    threshold = None if args.eps is None else _eps_threshold(game, args.eps)
    print(f"loss = {value}")
    if threshold is None:
        ok = value == 0
        print("verified: exact equilibrium" if ok else "failed: loss is nonzero")
    else:
        ok = value <= threshold
        print(
            f"verified: loss <= {threshold} = eps * |A+B|"
            if ok
            else f"failed: loss exceeds {threshold} = eps * |A+B|"
        )
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_bounds(args):
    rep = bound_report(args.d, args.k)
    print(f"d = {rep.d}")
    if rep.tau_lower is not None:
        print(f"tau({rep.d}) = {rep.tau_lower} (achievable equilibrium count)")
    print(
        f"Phi({rep.d},{2 * rep.d}) - 1 = {rep.keiding_upper} "
        "(upper bound on equilibria)"
    )
    if rep.k is not None:
        if rep.component_bound is None:
            print(f"component bound: undefined for k = {rep.k} (needs k + 1 <= d)")
        else:
            print(
                f"component bound C({rep.d},{rep.k + 1})^2 = {rep.component_bound} "
                f"(rank(A), rank(B) <= {rep.k})"
            )
    return EXIT_OK


def cmd_rankfact(args):
    game = load_game(args.game)
    fact = game.factorization
    note = f"rank(A+B) = {fact.rank}; nonnegative = {fact.nonnegative}"
    _emit(format_decomposition_text(fact), args.out, note)
    return EXIT_OK


def cmd_perturb(args):
    # both checks come before the game is read; rank 0 truncates A+B to 0,
    # a change as large as the payoff scale, which perturb_game refuses
    if args.k < 0:
        raise ValueError("--k must be a nonnegative integer")
    if args.k == 0:
        raise ValueError("--k must be at least 1: truncating A+B to rank 0 "
                         "changes it by its whole scale")
    game = load_game(args.game)
    # the payoff sum's Fraction rows, read from its integer rows: no array
    truncated = svd_truncate(list(map(_fractions, game._c_rows)), args.k)
    pert = perturb_game(game, truncated)
    note = (
        f"eps = {pert.eps}; rank(A+B) = {pert.perturbed.rank_c}; "
        f"exact equilibria of the original stay 3*eps-approximate"
    )
    _emit(format_game_text(pert.perturbed), args.out, note)
    return EXIT_OK


@cache
def build_parser():
    """The argument parser, built on the first call and shared after it:
    parse_args keeps no state in the parser, and building it is a large
    part of a short command run in process."""
    parser = argparse.ArgumentParser(
        prog="rankgames",
        description="Exact tools for bimatrix games with low payoff-sum rank.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="construct a family game, write its game file")
    g.add_argument("family", choices=(*_FAMILIES, "block"))
    g.add_argument("--d", type=int, help="dimension for rank1/sqdiff/identity")
    g.add_argument("--inner", help="block: inner component as TAG:D")
    g.add_argument("--outer", help="block: outer component as TAG:D")
    g.add_argument("--out", help="game file path (default: stdout)")
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("solve", help="enumerate equilibria or solve zero-sum")
    s.add_argument("game", help="game file path")
    s.add_argument("--mode", choices=["enum", "zerosum", "components"],
                   default="enum")
    s.add_argument("--out", help="report path (default: stdout)")
    s.set_defaults(func=cmd_solve)

    c = sub.add_parser("components", help="count connected equilibrium components")
    c.add_argument("game")
    c.add_argument("--out")
    c.set_defaults(func=cmd_components)

    a = sub.add_parser("approx", help="grid-LP approximate equilibrium")
    a.add_argument("game")
    a.add_argument("--scheme", choices=["abs", "rel"], required=True)
    a.add_argument("--eps", required=True, help="fraction like 1/10")
    a.add_argument("--decomp", help="nonnegative decomposition file (rel)")
    a.add_argument("--out")
    a.set_defaults(func=cmd_approx)

    v = sub.add_parser("verify", help="check a profile against a game")
    v.add_argument("game")
    v.add_argument("--profile", required=True, help="'x1,..,xm;y1,..,yn'")
    v.add_argument("--eps", help="approximate check at this eps (default exact)")
    v.set_defaults(func=cmd_verify)

    b = sub.add_parser("bounds", help="print counting bounds for dimension d")
    b.add_argument("--d", type=int, required=True)
    b.add_argument("--k", type=int, help="also bound components at rank k")
    b.set_defaults(func=cmd_bounds)

    r = sub.add_parser("rankfact", help="rank-factorize the payoff sum")
    r.add_argument("game")
    r.add_argument("--out", help="decomposition file path (default: stdout)")
    r.set_defaults(func=cmd_rankfact)

    p = sub.add_parser("perturb", help="truncate the payoff sum to rank k and "
                                       "rewrite the game around it")
    p.add_argument("game")
    p.add_argument("--k", type=int, required=True,
                   help="target rank, at least 1")
    p.add_argument("--out", help="game file path (default: stdout)")
    p.set_defaults(func=cmd_perturb)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage error (2) or the help (0)
        return exc.code
    try:
        return args.func(args)
    except GameFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # a bug, such as a certificate that missed its bound: never let it
        # exit 1, which means "verification failed"
        traceback.print_exc()
        print(f"error: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
