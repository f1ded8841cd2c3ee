"""End-to-end command-line runs, in process, with the stable exit codes."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rankgames import (
    BimatrixGame,
    block_game,
    enumerate_equilibria,
    format_game_text,
    identity_game,
    load_decomposition,
    load_game,
    parse_game_text,
    perturb_game,
    rank1_family,
    save_game,
    squared_difference_family,
    svd_truncate,
)
from rankgames.cli import build_parser, main

from helpers import connected_component_count

PENNIES = "2 2\n1 -1\n-1 1\n-1 1\n1 -1\n"
# a 3x3 game with rank(a) = rank(b) = 1
LOWRANK = "3 3\n1 2 3\n2 4 6\n3 6 9\n1 1 1\n2 2 2\n3 3 3\n"


def write_game(tmp_path, name, game):
    path = tmp_path / name
    save_game(path, game)
    return str(path)


def test_gen_to_file_and_stdout(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert main(["gen", "rank1", "--d", "3", "--out", str(out)]) == 0
    note = capsys.readouterr()
    assert "rank" in note.out
    assert load_game(out) == rank1_family(3)

    assert main(["gen", "sqdiff", "--d", "2"]) == 0
    streams = capsys.readouterr()
    assert parse_game_text(streams.out) == squared_difference_family(2)
    assert streams.err  # the note moved to stderr to keep the pipe clean


def test_gen_block(tmp_path, capsys):
    out = tmp_path / "b.txt"
    code = main(["gen", "block", "--inner", "identity:2",
                 "--outer", "rank1:3", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    assert load_game(out) == block_game(identity_game(2), rank1_family(3))


def test_gen_usage_errors(capsys):
    assert main(["gen", "rank1"]) == 2          # missing --d
    assert main(["gen", "block", "--inner", "identity:2"]) == 2
    assert main(["gen", "block", "--inner", "nope:2",
                 "--outer", "rank1:2"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    (["approx", "{game}", "--scheme", "abs", "--eps", "1/10",
      "--decomp", "/nonexistent"], "--decomp is read by --scheme rel only"),
    (["gen", "rank1", "--d", "3", "--inner", "identity:2"],
     "--inner and --outer are read by family 'block' only"),
    (["gen", "identity", "--d", "3", "--outer", "rank1:2"],
     "--inner and --outer are read by family 'block' only"),
    (["gen", "block", "--inner", "identity:2", "--outer", "rank1:3",
      "--d", "4"],
     "family 'block' takes no --d: its components set the dimension"),
], ids=["approx-abs-decomp", "gen-inner", "gen-outer", "gen-block-d"])
def test_options_the_command_would_ignore_exit_2(tmp_path, capsys, argv,
                                                 message):
    game = write_game(tmp_path, "g.txt", rank1_family(2))
    out = tmp_path / "out.txt"
    argv = [arg.format(game=game) for arg in argv]
    assert main(argv) == 2
    assert main([*argv, "--out", str(out)]) == 2
    streams = capsys.readouterr()
    assert streams.out == ""
    assert streams.err == f"error: {message}\n" * 2
    assert not out.exists()


def test_solve_enum_json(tmp_path, capsys):
    game = write_game(tmp_path, "g.txt", rank1_family(4))
    assert main(["solve", game]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == 1
    assert doc["command"] == "solve"
    assert doc["results"]["count"] == 7
    assert doc["results"]["component_count"] == 7
    keys = [tuple(Fraction(t) for t in e["x"] + e["y"])
            for e in doc["results"]["equilibria"]]
    assert keys == sorted(keys)  # deterministic lexicographic order


def test_solve_determinism(tmp_path, capsys):
    game = write_game(tmp_path, "g.txt", squared_difference_family(3))
    assert main(["solve", game]) == 0
    first = capsys.readouterr().out
    assert main(["solve", game]) == 0
    assert capsys.readouterr().out == first


def test_solve_zerosum(tmp_path, capsys):
    path = tmp_path / "pennies.txt"
    path.write_text(PENNIES)
    assert main(["solve", str(path), "--mode", "zerosum"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["value"] == "0"
    assert doc["results"]["equilibrium"]["x"] == ["1/2", "1/2"]
    # zerosum mode on a nonzero payoff sum is a usage error
    game = write_game(tmp_path, "g.txt", rank1_family(2))
    assert main(["solve", game, "--mode", "zerosum"]) == 2
    capsys.readouterr()


def test_components_subcommand(tmp_path, capsys):
    game = write_game(tmp_path, "g.txt", identity_game(2))
    assert main(["components", game]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["component_count"] == 3
    assert doc["results"]["rank_a"] == 2
    # both payoff ranks equal d here, so the rank bound does not apply
    assert doc["results"]["component_bound"] is None

    # low-rank payoffs activate the component bound C(d, k+1)^2
    game = write_game(tmp_path, "low.txt", parse_game_text(LOWRANK))
    assert main(["components", game]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["rank_a"] == 1
    assert doc["results"]["rank_b"] == 1
    assert doc["results"]["component_bound"] == 9  # C(3,2)^2
    assert doc["results"]["component_count"] <= 9


@pytest.mark.parametrize("game", [
    identity_game(3),
    parse_game_text(LOWRANK),
    block_game(identity_game(1), rank1_family(3)),
], ids=["identity3", "lowrank3", "block-identity1-rank1-3"])
def test_solve_components_mode_matches_components(tmp_path, capsys, game):
    # solve --mode components and components share one results object, and
    # its components are those of plain solve
    path = write_game(tmp_path, "g.txt", game)
    results = {}
    for name, argv in [("components", ["components", path]),
                       ("mode", ["solve", path, "--mode", "components"]),
                       ("enum", ["solve", path])]:
        assert main(argv) == 0
        results[name] = json.loads(capsys.readouterr().out)["results"]
    assert results["mode"] == results["components"]
    for key in ("component_count", "components"):
        assert results["mode"][key] == results["enum"][key]
    count = connected_component_count(game, enumerate_equilibria(game))
    assert results["mode"]["component_count"] == count


def test_approx_abs_and_rel(tmp_path, capsys):
    game = write_game(tmp_path, "g.txt", rank1_family(3))
    assert main(["approx", game, "--scheme", "abs", "--eps", "1/10"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["target"] == "18/5"
    assert doc["parameters"]["eps"] == "1/10"

    assert main(["approx", game, "--scheme", "rel", "--eps", "1/4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["rho"] == "9/25"


def test_approx_rel_with_decomp_file(tmp_path, capsys):
    game = write_game(tmp_path, "g.txt", rank1_family(2))
    decomp = tmp_path / "d.txt"
    decomp.write_text("1 2 2\n2 4\n2 4\n")
    code = main(["approx", game, "--scheme", "rel", "--eps", "1/2",
                 "--decomp", str(decomp)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["rho"] == "5/9"


def _refuse_float(text):
    raise AssertionError(f"the report holds the float {text}")


@pytest.mark.parametrize("argv", [
    ["solve", "g.txt"],
    ["solve", "g.txt", "--mode", "components"],
    ["solve", "pennies.txt", "--mode", "zerosum"],
    ["components", "g.txt"],
    ["approx", "g.txt", "--scheme", "abs", "--eps", "1/10"],
    ["approx", "g.txt", "--scheme", "rel", "--eps", "1/4"],
    ["approx", "g.txt", "--scheme", "rel", "--eps", "1/2", "--decomp", "d.txt"],
], ids=["solve", "solve-components", "solve-zerosum", "components",
        "approx-abs", "approx-rel", "approx-rel-decomp"])
def test_reports_hold_no_float(tmp_path, capsys, argv):
    # report_json writes a Fraction as its string and refuses any other
    # value json cannot write, but json writes a float itself: every
    # command that prints a report must hand it none
    write_game(tmp_path, "g.txt", rank1_family(2))
    (tmp_path / "pennies.txt").write_text(PENNIES)
    (tmp_path / "d.txt").write_text("1 2 2\n2 4\n2 4\n")
    assert main([str(tmp_path / a) if a.endswith(".txt") else a
                 for a in argv]) == 0
    doc = json.loads(capsys.readouterr().out, parse_float=_refuse_float,
                     parse_constant=_refuse_float)
    assert doc["command"] == argv[0] and doc["results"]


def test_verify_exit_codes(tmp_path, capsys):
    game = write_game(tmp_path, "g.txt", rank1_family(2))
    assert main(["verify", game, "--profile", "1/2,1/2;1/2,1/2"]) == 0
    assert "loss = 0" in capsys.readouterr().out
    assert main(["verify", game, "--profile", "1,0;0,1"]) == 1
    assert "loss = 2" in capsys.readouterr().out
    assert main(["verify", game, "--profile", "1,0;0,1", "--eps", "1/8"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("eps, message", [
    ("-1", "eps must be nonnegative"),
    ("1/0", "zero denominator in '1/0'"),
])
def test_verify_bad_eps_prints_nothing(tmp_path, capsys, eps, message):
    # eps is checked before the loss line is printed
    game = write_game(tmp_path, "g.txt", rank1_family(2))
    assert main(["verify", game, "--profile", "1,0;0,1", "--eps", eps]) == 2
    streams = capsys.readouterr()
    assert streams.out == ""
    assert streams.err == f"error: {message}\n"


def test_bounds_output(capsys):
    assert main(["bounds", "--d", "4", "--k", "1"]) == 0
    out = capsys.readouterr().out
    assert "tau(4) = 15" in out
    assert "Phi(4,8) - 1 = 19" in out
    assert "36" in out
    assert main(["bounds", "--d", "3"]) == 0
    out = capsys.readouterr().out
    assert "tau" not in out  # odd d has no tau line
    assert "Phi(3,6) - 1 = 7" in out


def test_module_entry_point_exits_with_main_code():
    """python -m rankgames exits with main()'s code: bounds above the work
    bound exits 4 at once, with an empty stdout and the bound on stderr,
    and a small d exits 0."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    runs = [subprocess.run([sys.executable, "-m", "rankgames", "bounds",
                            "--d", d], capture_output=True, text=True,
                           env=env, timeout=120, check=False)
            for d in ("4097", "4")]
    assert (runs[0].returncode, runs[0].stdout, runs[0].stderr) == (
        4, "", "error: 4097 strategies a side, above the bound 4096\n")
    assert runs[1].returncode == 0
    assert "Phi(4,8) - 1 = 19" in runs[1].stdout


def test_rankfact_round_trip(tmp_path, capsys):
    game = write_game(tmp_path, "g.txt", squared_difference_family(3))
    out = tmp_path / "d.txt"
    assert main(["rankfact", game, "--out", str(out)]) == 0
    note = capsys.readouterr().out
    assert "rank(A+B) = 3" in note
    fact = load_decomposition(out)
    assert fact.rank == 3


def test_perturb_subcommand(tmp_path, capsys):
    game = write_game(tmp_path, "g.txt", squared_difference_family(3))
    out = tmp_path / "p.txt"
    assert main(["perturb", game, "--k", "1", "--out", str(out)]) == 0
    note = capsys.readouterr().out
    assert "eps = " in note
    perturbed = load_game(out)
    assert perturbed.rank_c <= 1
    # truncating to the exact rank is a no-op perturbation, eps = 0
    assert main(["perturb", game, "--k", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    assert load_game(out) == squared_difference_family(3)


@pytest.mark.parametrize("text, k", [
    ("3 3\n-0 -1 -4\n-1 -0 -1\n-4 -1 -0\n-0 -1 -4\n-1 -0 -1\n-4 -1 -0\n", 1),
    ("3 3\n-0 -1 -4\n-1 -0 -1\n-4 -1 -0\n-0 -1 -4\n-1 -0 -1\n-4 -1 -0\n", 3),
    ("2 2\n3/2 0\n0 1/2\n1/3 0\n0 2/3\n", 1),
], ids=["sqdiff3-k1", "sqdiff3-exact", "fractions-k1"])
def test_perturb_reads_the_payoff_sum_rows(monkeypatch, tmp_path, capsys,
                                           text, k):
    # perturb hands svd_truncate the Fraction rows of the game's integer
    # payoff sum, never the object array game.c, and prints the bytes the
    # array route printed
    path = tmp_path / "g.txt"
    path.write_text(text)
    game = load_game(path)
    pert = perturb_game(game, svd_truncate(game.c, k))
    want_out = format_game_text(pert.perturbed)
    want_err = (f"eps = {pert.eps}; rank(A+B) = {pert.perturbed.rank_c}; "
                "exact equilibria of the original stay 3*eps-approximate\n")
    reads = []
    c = BimatrixGame.__dict__["c"]
    monkeypatch.setattr(BimatrixGame, "c",
                        property(lambda g: reads.append(g) or c.func(g)))
    assert main(["perturb", str(path), "--k", str(k)]) == 0
    assert reads == []
    assert capsys.readouterr() == (want_out, want_err)


def test_perturb_rank_zero_is_refused_before_the_game_is_read(tmp_path, capsys):
    # rank 0 can never succeed: c' = 0 differs from c by its whole scale
    game = write_game(tmp_path, "g.txt", rank1_family(3))
    for path in (game, str(tmp_path / "absent.txt")):
        assert main(["perturb", path, "--k", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: --k must be at least 1: truncating A+B to "
                       "rank 0 changes it by its whole scale\n")
    assert main(["perturb", game, "--k", "1"]) == 0
    capsys.readouterr()
    # the library call still answers for rank 0
    zero = svd_truncate(rank1_family(3).c, 0)
    assert zero.shape == (3, 3) and all(e == 0 for e in zero.flat)


def test_perturb_huge_entry_is_a_usage_error(tmp_path, capsys):
    # 10**309 is beyond the float range, so the truncating SVD cannot run
    path = tmp_path / "huge.txt"
    path.write_text(f"2 2\n{10**309} 0\n0 1\n0 0\n0 0\n")
    assert main(["perturb", str(path), "--k", "1"]) == 2
    assert "too large for the float SVD" in capsys.readouterr().err
    # the exact shortcut needs no floats, so it still works at full rank
    assert main(["perturb", str(path), "--k", "2"]) == 0
    capsys.readouterr()


def test_parse_error_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n1 2\n")
    assert main(["solve", str(bad)]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["game", "decomp"])
def test_non_utf8_input_exit_3(tmp_path, capsys, kind):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe")
    if kind == "game":
        argv = ["solve", str(bad)]
    else:
        game = write_game(tmp_path, "g.txt", rank1_family(2))
        argv = ["approx", game, "--scheme", "rel", "--eps", "1/2",
                "--decomp", str(bad)]
    assert main(argv) == 3
    assert "not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code, stream, text", [
    (["gen", "block", "--inner", "rank1:x", "--outer", "rank1:2"], 2, "err",
     "error: --inner: D must be an integer\n"),
    (["perturb", "GAME", "--k", "-1"], 2, "err",
     "error: --k must be a nonnegative integer\n"),
    (["bounds", "--d", "2", "--k", "5"], 0, "out",
     "component bound: undefined for k = 5 (needs k + 1 <= d)\n"),
    (["solve", "BADGAME"], 3, "err",
     "error: header must be two integers: m n\n"),
    (["approx", "GAME", "--scheme", "rel", "--eps", "1/2",
      "--decomp", "BADDECOMP"], 3, "err",
     "error: header must be three integers: k m n\n"),
    (["approx", "GAME", "--scheme", "rel", "--eps", "1/2",
      "--decomp", "OFFDECOMP"], 2, "err",
     "error: decomposition does not reconstruct a+b\n"),
    (["approx", "GAME", "--scheme", "rel", "--eps", "1/2",
      "--decomp", "SHORTDECOMP"], 3, "err",
     "error: u vector 1: expected 2 entries, found 1\n"),
], ids=["gen-block-bad-d", "perturb-negative-k", "bounds-undefined",
        "game-header", "decomp-header", "decomp-off-the-game",
        "decomp-short-u"])
def test_error_branches(tmp_path, capsys, argv, code, stream, text):
    files = {"GAME": write_game(tmp_path, "g.txt", rank1_family(2)),
             "BADGAME": tmp_path / "badgame.txt",
             "BADDECOMP": tmp_path / "baddecomp.txt",
             "OFFDECOMP": tmp_path / "offdecomp.txt",
             "SHORTDECOMP": tmp_path / "shortdecomp.txt"}
    files["BADGAME"].write_text("2 x\n1 2\n3 4\n1 2\n3 4\n")
    files["BADDECOMP"].write_text("1 2 x\n1 2\n1 2\n")
    # a + b of rank1_family(2) is (2, 4)(2, 4)^T
    files["OFFDECOMP"].write_text("1 2 2\n2 4\n2 5\n")
    files["SHORTDECOMP"].write_text("1 2 2\n2\n2 4\n")
    assert main([str(files.get(a, a)) for a in argv]) == code
    assert getattr(capsys.readouterr(), stream).endswith(text)


def test_missing_file_exit_2(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "absent.txt")]) == 2
    capsys.readouterr()


def test_cap_exit_4(tmp_path, capsys):
    # the vertex walk of identity(13) passes MAX_WORK bases
    game = write_game(tmp_path, "big.txt", identity_game(13))
    assert main(["solve", game]) == 4
    assert "above the bound 4096" in capsys.readouterr().err
    assert main(["components", game]) == 4
    capsys.readouterr()


def test_rank1_13_solves(tmp_path, capsys):
    # m + n = 26, as for identity(13), but a walk of a few hundred bases
    game = write_game(tmp_path, "r13.txt", rank1_family(13))
    assert main(["solve", game]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["count"] == 25


def test_grid_cell_bound_exit_4(tmp_path, capsys):
    game = write_game(tmp_path, "sq.txt", squared_difference_family(3))
    assert main(["approx", game, "--scheme", "abs", "--eps", "1/4"]) == 4
    assert "27648 cells" in capsys.readouterr().err


@pytest.mark.parametrize("scheme", ["abs", "rel"])
def test_fine_grid_axis_exit_4(tmp_path, capsys, scheme):
    game = write_game(tmp_path, "r1.txt", rank1_family(2))
    argv = ["approx", game, "--scheme", scheme, "--eps", "1/1000000000"]
    assert main(argv) == 4
    assert "above the bound 4096" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["approx", "GAME", "--scheme", "abs", "--eps", "1/0"],
    ["approx", "GAME", "--scheme", "rel", "--eps", "1/0"],
    ["verify", "GAME", "--profile", "1,0;1,0", "--eps", "1/0"],
], ids=["approx-abs", "approx-rel", "verify"])
def test_zero_denominator_eps_exit_2(tmp_path, capsys, argv):
    game = write_game(tmp_path, "r1.txt", rank1_family(2))
    assert main([game if a == "GAME" else a for a in argv]) == 2
    assert "zero denominator" in capsys.readouterr().err


def test_bounds_negative_k_exit_2(capsys):
    assert main(["bounds", "--d", "3", "--k", "-1"]) == 2
    assert "k must be nonnegative" in capsys.readouterr().err


# each command with the function it hands its work to; the game path is
# filled in for the "GAME" token
CALLEES = {
    "solve": (["solve", "GAME"], "enumerate_equilibria"),
    "solve-zerosum": (["solve", "GAME", "--mode", "zerosum"], "solve_zero_sum"),
    "components": (["components", "GAME"], "enumerate_equilibria"),
    "approx-abs": (["approx", "GAME", "--scheme", "abs", "--eps", "1/10"],
                   "approx_absolute"),
    "approx-rel": (["approx", "GAME", "--scheme", "rel", "--eps", "1/4"],
                   "approx_relative"),
    "rankfact": (["rankfact", "GAME"], "format_decomposition_text"),
    "perturb": (["perturb", "GAME", "--k", "1"], "perturb_game"),
    "verify": (["verify", "GAME", "--profile", "1/2,1/2;1/2,1/2"], "loss"),
    "bounds": (["bounds", "--d", "4"], "bound_report"),
    "gen": (["gen", "block", "--inner", "identity:2", "--outer", "rank1:2"],
            "block_game"),
}


@pytest.mark.parametrize("command", sorted(CALLEES))
@pytest.mark.parametrize("exc", [
    RuntimeError("no cell met the eps * |a+b| target; this is a bug"),
    AssertionError("this is a bug"),
])
def test_internal_error_exit_5(tmp_path, capsys, monkeypatch, exc, command):
    def broken(*args, **kwargs):
        raise exc

    argv, callee = CALLEES[command]
    monkeypatch.setattr(f"rankgames.cli.{callee}", broken)
    game = write_game(tmp_path, "g.txt", rank1_family(2))
    assert main([game if a == "GAME" else a for a in argv]) == 5
    err = capsys.readouterr().err
    assert f"error: internal error: {type(exc).__name__}: {exc}" in err


def test_argparse_usage_exit_2(capsys):
    assert main(["no-such-command"]) == 2
    assert "invalid choice" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert "usage: rankgames" in capsys.readouterr().out


def test_parser_shared_across_calls_matches_fresh_runs(tmp_path, capsys):
    """One process runs several commands, a usage error among them, on the
    parser main() builds once; each gives the output and exit code of the
    same command in a fresh interpreter."""
    game = write_game(tmp_path, "g.txt", rank1_family(3))
    calls = [
        ["gen", "sqdiff", "--d", "2"],
        ["solve", game],
        ["verify", game, "--profile", "1,0,0;0,1,0"],
        ["solve", game, "--mode", "nope"],
        ["approx", game, "--scheme", "abs", "--eps", "1/10"],
        ["verify", game, "--profile", "1,0,0;1,0,0"],
        ["gen", "sqdiff", "--d", "2"],
    ]
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    for argv in calls:
        code = main(argv)
        streams = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "rankgames", *argv],
                               capture_output=True, text=True, env=env,
                               timeout=120, check=False)
        assert (code, streams.out, streams.err) == (
            fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert build_parser.cache_info().currsize == 1


# Runs every command but perturb through cli.main in a fresh interpreter,
# in the working directory it is given, and prints one JSON line: each
# command's exit code and output, and whether NumPy was imported. With
# "block" as its argument, NumPy is made unimportable first.
_COMMAND_RUN = """
import contextlib, io, json, sys
if sys.argv[1:] == ["block"]:
    sys.modules["numpy"] = None
import rankgames
from rankgames.cli import main
open("pennies.txt", "w").write(%r)
runs = []
for argv in %r:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    runs.append([argv, code, out.getvalue(), err.getvalue()])
print(json.dumps({"runs": runs,
                  "numpy": sys.modules.get("numpy") is not None}))
"""

_NUMPY_FREE_COMMANDS = [
    ["gen", "rank1", "--d", "4", "--out", "r4.txt"],
    ["gen", "sqdiff", "--d", "4", "--out", "sq4.txt"],
    ["gen", "identity", "--d", "3", "--out", "id3.txt"],
    ["gen", "block", "--inner", "identity:2", "--outer", "rank1:2",
     "--out", "blk.txt"],
    ["solve", "r4.txt"],
    ["solve", "sq4.txt"],
    ["solve", "pennies.txt", "--mode", "zerosum"],
    ["solve", "blk.txt", "--mode", "components"],
    ["components", "id3.txt"],
    ["approx", "r4.txt", "--scheme", "abs", "--eps", "1/10"],
    ["approx", "r4.txt", "--scheme", "rel", "--eps", "1/4"],
    ["rankfact", "r4.txt", "--out", "r4dec.txt"],
    ["approx", "r4.txt", "--scheme", "rel", "--eps", "1/4",
     "--decomp", "r4dec.txt"],
    ["verify", "r4.txt", "--profile", "1,0,0,0;1,0,0,0"],
    ["verify", "r4.txt", "--profile", "1,0,0,0;0,1,0,0", "--eps", "1/8"],
    ["bounds", "--d", "4", "--k", "1"],
]


def test_commands_import_no_numpy(tmp_path):
    """import rankgames and every command but perturb run with NumPy
    unimportable, and exit and print as they do with it; without the
    block, those runs leave NumPy unimported until a game's a is read,
    which builds a NumPy object array."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    script = _COMMAND_RUN % (PENNIES, _NUMPY_FREE_COMMANDS)
    results = {}
    for mode in ("block", "open"):
        cwd = tmp_path / mode
        cwd.mkdir()
        run = subprocess.run([sys.executable, "-c", script, mode], cwd=cwd,
                             capture_output=True, text=True, env=env,
                             timeout=120, check=True)
        results[mode] = json.loads(run.stdout)
    assert results["block"] == results["open"]
    assert results["open"]["numpy"] is False
    assert [code for _, code, _, _ in results["open"]["runs"]] == \
        [0] * len(_NUMPY_FREE_COMMANDS)

    read_a = ("import sys\nfrom rankgames import rank1_family\n"
              "game = rank1_family(2)\nbefore = 'numpy' in sys.modules\n"
              "game.a\nprint(before, 'numpy' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", read_a], capture_output=True,
                         text=True, env=env, timeout=120, check=True)
    assert run.stdout.split() == ["False", "True"]
