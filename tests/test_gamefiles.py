"""Text formats: games, decompositions, profiles, and JSON reports."""

import json
import random
from fractions import Fraction

import numpy as np
import pytest

from rankgames import (
    BimatrixGame,
    GameFormatError,
    MixedProfile,
    block_game,
    format_decomposition_text,
    format_game_text,
    format_profile_text,
    identity_game,
    load_decomposition,
    load_game,
    make_report,
    parse_decomposition_text,
    parse_game_text,
    parse_profile_text,
    rank1_family,
    rank_factorize,
    save_decomposition,
    save_game,
    squared_difference_family,
)
from rankgames.gamefiles import encode_report, report_json

from helpers import (
    random_game,
    random_profile,
    reference_game_text,
    reference_profile_text,
)


def test_game_text_frozen_layout():
    text = format_game_text(rank1_family(2))
    assert text == "2 2\n2 7\n1 8\n2 1\n7 8\n"
    assert parse_game_text(text) == rank1_family(2)


def test_game_round_trip_random():
    rng = random.Random(55)
    for _ in range(20):
        g = random_game(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert parse_game_text(format_game_text(g)) == g
    # the writer reads integer rows; its text is str of each Fraction, on
    # integer and fractional games, built, loaded and composed
    for _ in range(20):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a, b = ([[Fraction(rng.randint(-30, 30), rng.randint(1, 12))
                  for _ in range(n)] for _ in range(m)] for _ in range(2))
        g, corner = BimatrixGame(a, b), BimatrixGame([a[0][:1]], [b[0][:1]])
        for game in (g, parse_game_text(reference_game_text(g)),
                     random_game(rng, m, n), squared_difference_family(n),
                     block_game(corner, identity_game(m)),
                     block_game(rank1_family(m), block_game(corner, corner))):
            text = format_game_text(game)
            assert text == reference_game_text(game)
            assert parse_game_text(text) == game


def test_game_text_fractions_and_comments():
    text = "# a 1x2 game with fractional entries\n1 2\n1/3 -2/5\n0 7\n"
    g = parse_game_text(text)
    assert g.a[0, 0] == Fraction(1, 3)
    assert g.a[0, 1] == Fraction(-2, 5)
    assert g.b[0, 1] == 7


def test_decimal_entries_parse_exactly():
    # decimal strings are exact rationals on input; output stays p/q
    g = parse_game_text("1 1\n2.5\n-0.75\n")
    assert g.a[0, 0] == Fraction(5, 2)
    assert g.b[0, 0] == Fraction(-3, 4)
    assert format_game_text(g) == "1 1\n5/2\n-3/4\n"


@pytest.mark.parametrize("token", [
    "+5", "-0", "007", "1_000", "\u0663", "1.5", "1e3", "3/4", "-3/-4",
    "\u00bd", "0x10", "x", "9" * 5000,
], ids=["plus", "minus-zero", "leading-zeros", "underscore", "arabic-indic",
        "decimal", "exponent", "ratio", "negative-denominator", "vulgar-half",
        "hex", "letter", "5000-digits"])
def test_entry_tokens_parse_as_fraction_does(token):
    # a sign and ASCII digits skip Fraction's string parser; the tokens
    # accepted and their values must still be Fraction's on the running
    # Python (3.10's Fraction refuses 1_000, which int() takes, and int()
    # also takes non-ASCII digits)
    text = f"1 1\n{token}\n0\n"
    try:
        want = Fraction(token)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(GameFormatError, match="bad entry"):
            parse_game_text(text)
    else:
        got = parse_game_text(text).a[0, 0]
        assert type(got) is Fraction and got == want


@pytest.mark.parametrize("bad", [
    "",
    "2\n1 2\n3 4\n",
    "0 2\n\n",
    "2 2\n1 2\n3 4\n5 6\n",          # missing B rows
    "1 1\n1\n1\nextra\n",            # trailing rows
    "1 2\n1 x\n0 0\n",
    "1 2\n1\n0 0\n",                 # short row
])
def test_game_parse_errors(bad):
    with pytest.raises(GameFormatError):
        parse_game_text(bad)


def test_game_file_round_trip(tmp_path):
    g = squared_difference_family(3)
    path = tmp_path / "game.txt"
    save_game(path, g)
    assert load_game(path) == g


def test_decomposition_round_trip(tmp_path):
    fact = rank_factorize(squared_difference_family(3).c)
    text = format_decomposition_text(fact)
    back = parse_decomposition_text(text)
    assert back.shape == fact.shape
    assert back.pairs == fact.pairs
    assert back.nonnegative == fact.nonnegative
    assert np.array_equal(back.matrix(), fact.matrix())
    path = tmp_path / "decomp.txt"
    save_decomposition(path, fact)
    assert load_decomposition(path).pairs == fact.pairs


def test_decomposition_frozen_layout():
    fact = rank_factorize(rank1_family(2).c)
    assert format_decomposition_text(fact) == "1 2 2\n4 8\n1 2\n"


@pytest.mark.parametrize("bad", [
    "",
    "1 2\n1 2\n1 2\n",
    "-1 2 2\n",
    "1 2 2\n1 2\n",                  # missing v row
    "1 2 2\n1 2\n3 4\n5 6\n",        # trailing rows
    "1 2 2\n1 q\n3 4\n",
])
def test_decomposition_parse_errors(bad):
    with pytest.raises(GameFormatError):
        parse_decomposition_text(bad)


def test_profile_round_trip():
    p = MixedProfile(("1/3", "2/3"), (0, "1/2", "1/2"))
    text = format_profile_text(p)
    assert text == "1/3,2/3;0,1/2,1/2"
    assert parse_profile_text(text) == p
    # the writer reads integer rows, reduced or not; its text is str of
    # each Fraction
    rng = random.Random(56)
    for _ in range(20):
        q = random_profile(rng, rng.randint(1, 5), rng.randint(1, 5))
        xs, ys = q._int_form
        k = rng.randint(1, 4)
        for r in (q, MixedProfile.from_int_rows([k * e for e in xs],
                                                [k * e for e in ys])):
            text = format_profile_text(r)
            assert text == reference_profile_text(r)
            assert parse_profile_text(text) == r == q


@pytest.mark.parametrize("bad", [
    "1/2,1/2",                       # no separator
    "1;2;3",
    "1/2,;1",
    "a,b;1",
])
def test_profile_syntax_errors(bad):
    with pytest.raises(GameFormatError):
        parse_profile_text(bad)


def test_profile_semantic_errors_are_value_errors():
    with pytest.raises(ValueError):
        parse_profile_text("1/2,1/3;1")  # does not sum to 1
    with pytest.raises(ValueError):
        parse_profile_text("-1/2,3/2;1")


def test_report_json_is_exact_and_versioned():
    g = rank1_family(2)
    rep = make_report(g, MixedProfile(("1/2", "1/2"), ("1/2", "1/2")))
    doc = json.loads(report_json("solve", {"mode": "enum"},
                                 {"equilibria": [encode_report(rep)]}))
    assert doc["schema_version"] == 1
    assert doc["command"] == "solve"
    entry = doc["results"]["equilibria"][0]
    assert entry["x"] == ["1/2", "1/2"]
    assert entry["loss"] == "0"
    assert entry["payoff1"] == "9/2"
    assert entry["kind"] == "exact"

    def no_floats(node):
        if isinstance(node, dict):
            return all(no_floats(v) for v in node.values())
        if isinstance(node, list):
            return all(no_floats(v) for v in node)
        return not isinstance(node, float)

    assert no_floats(doc)


@pytest.mark.parametrize("value, name", [
    (object(), "object"),
    ({"loss": [Fraction(1), np.int64(3)]}, "int64"),
    (np.int64(3), "int64"),
])
def test_encode_rejects_unsupported_types(value, name):
    # json calls report_json's hook for a value it cannot write, nested or
    # not; the hook writes a Fraction and refuses anything else (a float
    # json writes itself: test_cli.py::test_reports_hold_no_float)
    with pytest.raises(TypeError, match=f"cannot encode {name} into a report"):
        report_json("solve", {"eps": Fraction(1, 2)}, value)
