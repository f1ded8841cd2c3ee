"""Spans at the rankgames module boundaries, recorded from outside the
package by wrapping its functions while a traced round runs.

Nothing is wrapped unless a Tracer is installed, so untraced rounds run the
package exactly as shipped.
"""

import importlib
import sys
import time
from collections import defaultdict

# (module, function) wrapped in a traced round. The span name drops the
# package prefix, e.g. "linalg.solve_linear_system".
TRACED = (
    ("cli", "main"),
    ("gamefiles", "load_game"),
    ("gamefiles", "report_json"),
    ("games", "loss"),
    ("games", "make_report"),
    ("linalg", "solve_linear_system"),
    ("linalg", "matrix_rank"),
    ("linalg", "rank_factorize"),
    ("lp", "solve_lp"),
    ("polyhedra", "build_polyhedra"),
    ("polyhedra", "enumerate_vertices"),
    ("enumeration", "enumerate_equilibria"),
    ("enumeration", "_component_partition"),
    ("approx", "approx_absolute"),
    ("approx", "approx_relative"),
)

# What a span keeps of its call's result, for the work counts.
_NOTES = {
    "linalg.solve_linear_system": lambda r: r is None,
    "lp.solve_lp": lambda r: r.status,
    "polyhedra.enumerate_vertices": len,
    "enumeration.enumerate_equilibria": lambda r: (len(r.reports), r.component_count),
}

# Span fields, stored as lists to keep recording cheap.
NAME, START, END, PARENT, REQUEST, NOTE = range(6)


class Tracer:
    """Records one span per call of a TRACED function made while a request
    is current: [name, start, end, parent span index or -1, request, note].

    Use as a context manager: entering wraps the functions in every loaded
    rankgames module that holds them, leaving restores the originals.
    """

    def __init__(self):
        self.spans = []
        self.request = None
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        note = _NOTES.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if self.request is None:
                return fn(*args, **kwargs)
            span = [name, clock(), None, stack[-1] if stack else -1,
                    self.request, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None:
                span[NOTE] = note(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "rankgames" or key.startswith("rankgames.")]
        for mod_name, fn_name in TRACED:
            original = getattr(importlib.import_module(f"rankgames.{mod_name}"), fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()
        return False


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _per_round(value, rounds):
    """Counts repeat exactly from round to round, so keep them whole."""
    return value // rounds if value % rounds == 0 else value / rounds


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, rounds=1):
    """Per-layer work counts and times, per round of `rounds` traced rounds.

    Times are sums over spans: `*_s` of one function is inclusive, a
    module's `self_s` excludes time in traced functions it called.
    """
    own = self_times(spans)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)

    def count(name):
        return len(by_name[name])

    def total(name):
        return sum(spans[i][END] - spans[i][START] for i in by_name[name])

    def module_self(module):
        prefix = module + "."
        return sum(own[i] for i, s in enumerate(spans) if s[NAME].startswith(prefix))

    def children(i, name):
        return [j for j in by_name[name] if spans[j][PARENT] == i]

    solves = by_name["linalg.solve_linear_system"]
    vert_calls = by_name["polyhedra.enumerate_vertices"]
    vertices = sum(spans[i][NOTE] for i in vert_calls)
    vertex_solves = sum(len(children(i, "linalg.solve_linear_system")) for i in vert_calls)

    eq_calls = by_name["enumeration.enumerate_equilibria"]
    pairs = 0
    for i in eq_calls:
        sides = [spans[j][NOTE] for j in children(i, "polyhedra.enumerate_vertices")]
        if len(sides) == 2:
            pairs += sides[0] * sides[1]
    equilibria = sum(spans[i][NOTE][0] for i in eq_calls)

    approx_calls = by_name["approx.approx_absolute"] + by_name["approx.approx_relative"]
    cells = [j for i in approx_calls for j in children(i, "lp.solve_lp")]
    feasible = sum(1 for j in cells if spans[j][NOTE] != "infeasible")

    counts = {
        "linalg.solve_calls": len(solves),
        "linalg.solve_singular": sum(1 for i in solves if spans[i][NOTE]),
        "linalg.rank_calls": count("linalg.matrix_rank"),
        "polyhedra.enumerate_vertices_calls": len(vert_calls),
        "polyhedra.vertices": vertices,
        "enumeration.pairs_tried": pairs,
        "enumeration.equilibria": equilibria,
        "enumeration.components": sum(spans[i][NOTE][1] for i in eq_calls),
        "games.loss_calls": count("games.loss"),
        "lp.solve_calls": count("lp.solve_lp"),
        "lp.infeasible": sum(1 for i in by_name["lp.solve_lp"]
                             if spans[i][NOTE] == "infeasible"),
        "approx.cells": len(cells),
    }
    out = {name: _per_round(value, rounds) for name, value in counts.items()}
    out.update({
        "linalg.solve_s": total("linalg.solve_linear_system") / rounds,
        "linalg.rank_s": total("linalg.matrix_rank") / rounds,
        "linalg.rank_factorize_s": total("linalg.rank_factorize") / rounds,
        "polyhedra.vertex_yield": _ratio(vertices, vertex_solves),
        "polyhedra.self_s": module_self("polyhedra") / rounds,
        "enumeration.cover_ratio": _ratio(equilibria, pairs),
        "enumeration.partition_s": total("enumeration._component_partition") / rounds,
        "enumeration.self_s": module_self("enumeration") / rounds,
        "games.loss_s": total("games.loss") / rounds,
        "games.make_report_s": total("games.make_report") / rounds,
        "lp.solve_s": total("lp.solve_lp") / rounds,
        "approx.feasible_ratio": _ratio(feasible, len(cells)),
        "approx.self_s": module_self("approx") / rounds,
        "gamefiles.load_game_s": total("gamefiles.load_game") / rounds,
        "gamefiles.report_json_s": total("gamefiles.report_json") / rounds,
        "cli.main_s": total("cli.main") / rounds,
    })
    return out
