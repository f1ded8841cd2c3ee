"""Plain-text game and decomposition files, profile strings, JSON reports."""

import json
from fractions import Fraction
from math import gcd

from .errors import GameFormatError
from .games import BimatrixGame, MixedProfile, _int_matrix
from .linalg import RankFactorization

SCHEMA_VERSION = 1


def _content_lines(text):
    """Nonempty, non-comment lines; '#' starts a comment."""
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def _header(text, kind, form):
    """A file's content lines and its header's ints, one for each name
    after the colon of form ("two integers: m n")."""
    lines = _content_lines(text)
    if not lines:
        raise GameFormatError(f"empty {kind} file")
    header = lines[0].split()
    try:
        values = [int(t) for t in header]
    except ValueError as exc:
        raise GameFormatError(f"header must be {form}") from exc
    if len(values) != len(form.partition(": ")[2].split()):
        raise GameFormatError(f"header must be {form}")
    return lines, values


def _parse_pair(token, where):
    """The (numerator, positive denominator) of a token in lowest terms,
    as Fraction(token) parses it. A token of an optional sign and ASCII
    digits is read by int(), which skips Fraction's regex; every other
    token, such as 1_000 (which int() takes and some Fraction versions
    refuse) or non-ASCII digits, goes to Fraction(token)."""
    digits = token[1:] if token[:1] in ("+", "-") else token
    try:
        if digits.isascii() and digits.isdigit():
            return int(token), 1
        value = Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise GameFormatError(f"{where}: bad entry {token!r}") from exc
    return value.numerator, value.denominator


def _parse_fraction(token, where):
    return Fraction(*_parse_pair(token, where))


def _parse_row(line, count, where, parse=_parse_fraction):
    tokens = line.split()
    if len(tokens) != count:
        raise GameFormatError(
            f"{where}: expected {count} entries, found {len(tokens)}"
        )
    return [parse(t, where) for t in tokens]


def parse_game_text(text):
    """Parse a game file: header 'm n', then m rows of a, then m rows of b.

    The game is built from its integer rows, with no Fraction made for an
    integer entry; a and b are built when they are read. A file of integer
    rows is read one int() map per row; any other is read token by token
    (_parse_pair) from its first row, which also gives every error."""
    lines, (m, n) = _header(text, "game", "two integers: m n")
    if m < 1 or n < 1:
        raise GameFormatError("dimensions must be positive")
    if len(lines) != 1 + 2 * m:
        raise GameFormatError(
            f"expected {2 * m} payoff rows after the header, found {len(lines) - 1}"
        )
    try:
        # int() takes exactly the tokens _parse_pair reads with int(), a
        # sign and ASCII digits, among the ASCII tokens without "_"
        rows = [list(map(int, line.split()))
                if line.isascii() and "_" not in line else []
                for line in lines[1:]]
    except ValueError:
        rows = [[]]
    if all(len(row) == n for row in rows):
        return BimatrixGame._from_int_form(rows[:m], 1,
                                           list(map(list, zip(*rows[m:]))), 1)
    a = [_parse_row(lines[1 + i], n, f"a row {i + 1}", _parse_pair)
         for i in range(m)]
    b = [_parse_row(lines[1 + m + i], n, f"b row {i + 1}", _parse_pair)
         for i in range(m)]
    return BimatrixGame._from_int_form(*_int_matrix(a),
                                       *_int_matrix(list(zip(*b))))


def format_game_text(game):
    """The game file of a game, written from its integer rows."""
    a_rows, da, bt_rows, db = game._int_form
    lines = [f"{game.m} {game.n}"]
    lines += (" ".join(_row_texts((*row, da))) for row in a_rows)
    lines += (" ".join(_row_texts((*row, db))) for row in zip(*bt_rows))
    return "\n".join(lines) + "\n"


def _read_text(path):
    """A file's UTF-8 text; undecodable bytes are a parse error, not a usage one."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise GameFormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def load_game(path):
    return parse_game_text(_read_text(path))


def save_game(path, game):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_game_text(game))


def parse_decomposition_text(text):
    """Parse a decomposition file: header 'k m n', then per pair a u row
    (m entries) and a v row (n entries)."""
    lines, (k, m, n) = _header(text, "decomposition", "three integers: k m n")
    if k < 0 or m < 1 or n < 1:
        raise GameFormatError("need k >= 0 and positive dimensions")
    if len(lines) != 1 + 2 * k:
        raise GameFormatError(
            f"expected {2 * k} vector rows after the header, found {len(lines) - 1}"
        )
    pairs = []
    for t in range(k):
        u = _parse_row(lines[1 + 2 * t], m, f"u vector {t + 1}")
        v = _parse_row(lines[2 + 2 * t], n, f"v vector {t + 1}")
        pairs.append((tuple(u), tuple(v)))
    return RankFactorization(shape=(m, n), pairs=tuple(pairs))


def format_decomposition_text(fact):
    m, n = fact.shape
    lines = [f"{len(fact.pairs)} {m} {n}"]
    for u, v in fact.pairs:
        lines.append(" ".join(str(e) for e in u))
        lines.append(" ".join(str(e) for e in v))
    return "\n".join(lines) + "\n"


def load_decomposition(path):
    return parse_decomposition_text(_read_text(path))


def save_decomposition(path, fact):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_decomposition_text(fact))


def parse_profile_text(text):
    """Parse 'x1,..,xm;y1,..,yn' into a MixedProfile.

    Syntax errors raise GameFormatError; semantic problems (negative weight,
    sum not 1) surface as ValueError from MixedProfile itself.
    """
    parts = text.split(";")
    if len(parts) != 2:
        raise GameFormatError("profile must be 'x1,..,xm;y1,..,yn'")
    vecs = []
    for part in parts:
        tokens = [t.strip() for t in part.split(",")]
        if not all(tokens):
            raise GameFormatError("profile has an empty entry")
        vecs.append(tuple(_parse_fraction(t, "profile") for t in tokens))
    return MixedProfile(vecs[0], vecs[1])


def format_profile_text(profile):
    """'x1,..,xm;y1,..,yn', written from the profile's integer rows."""
    xs, ys = profile._int_form
    return ",".join(_row_texts(xs)) + ";" + ",".join(_row_texts(ys))


def _pair_text(n, d):
    """str(Fraction(n, d)) for ints n and d > 0, with no Fraction made."""
    g = gcd(n, d)
    if g != 1:
        n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


def _row_texts(row):
    """The entry strings of an integer row, str of each Fraction."""
    den = row[-1]
    return [_pair_text(e, den) for e in row[:-1]]


def _entry(xs, ys, values, kind="exact", parameter=None):
    """The report entry of a profile's integer rows xs and ys, whose loss
    and payoffs are the (numerator, positive denominator) pairs values
    (games._evaluate_products), with no Fraction made."""
    loss, payoff1, payoff2 = (_pair_text(*pair) for pair in values)
    return {
        "x": _row_texts(xs),
        "y": _row_texts(ys),
        "loss": loss,
        "payoff1": payoff1,
        "payoff2": payoff2,
        "kind": kind,
        "parameter": None if parameter is None else str(parameter),
        "support1": [i for i, e in enumerate(xs[:-1]) if e > 0],
        "support2": [j for j, e in enumerate(ys[:-1]) if e > 0],
    }


def encode_report(report):
    """EquilibriumReport -> plain dict with exact fraction strings (_entry)."""
    return _entry(*report.profile._int_form,
                  [(v.numerator, v.denominator)
                   for v in (report.loss, report.payoff1, report.payoff2)],
                  report.kind, report.parameter)


def _fraction_text(value):
    """json.dumps's hook for a value json cannot write: str of a Fraction."""
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"cannot encode {type(value).__name__} into a report")


_quoted = json.encoder.encode_basestring_ascii
# the JSON text of a value that holds no other: the common classes directly,
# any other by one encoder, as json.dumps(value, default=_fraction_text) does
_LEAF_TEXT = {str: _quoted, int: int.__repr__, type(None): lambda _: "null"}
_leaf_text = json.JSONEncoder(default=_fraction_text).encode


def _write(value, out, indent):
    """Append to out the text json.dumps(value, indent=2,
    default=_fraction_text) writes for value at the nesting whose line
    break and spaces are indent. A key that is not a str is written as
    json writes it, or refused with json's TypeError."""
    inner = indent + "  "
    if isinstance(value, dict):
        sep = "{" + inner
        for key, item in value.items():
            if key.__class__ is not str:
                key, = json.loads(json.dumps({key: None}, indent=2))
            out.append(f"{sep}{_quoted(key)}: ")
            _write(item, out, inner)
            sep = "," + inner
        out.append(indent + "}" if value else "{}")
    elif isinstance(value, (list, tuple)):
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, out, inner)
            sep = "," + inner
        out.append(indent + "]" if value else "[]")
    else:
        out.append(_LEAF_TEXT.get(value.__class__, _leaf_text)(value))


def report_json(command, parameters, results):
    """The report payload as JSON text, each Fraction as its exact string,
    written in one pass (_write) as json.dumps(indent=2) writes it. A float
    would be written too; that no command hands one over is checked by a
    test that parses every command's report."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "parameters": parameters,
        "results": results,
    }
    out = []
    _write(payload, out, "\n")
    return "".join(out) + "\n"
