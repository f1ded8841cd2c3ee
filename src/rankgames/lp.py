"""Exact linear programming: two-phase simplex with Bland's rule, on
integer rows inside and Fractions at the interface."""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import (
    as_fraction,
    fraction_matrix,
    fraction_vector,
    int_row,
    min_ratio_rows,
    pivot,
    reduced,
)

SENSES = ("<=", "=", ">=")


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """Minimize objective . x subject to lhs x (senses) rhs and variable bounds.

    A None in lower/upper means that side is unbounded. Row order is part of
    the problem identity: the solver is deterministic for a fixed row order.
    """

    objective: tuple
    lhs: np.ndarray
    senses: tuple
    rhs: tuple
    lower: tuple
    upper: tuple

    @property
    def nvars(self):
        return len(self.objective)


@dataclass(frozen=True)
class LpSolution:
    """status is 'optimal', 'infeasible', or 'unbounded'; x and objective_value
    are None unless status is 'optimal'."""

    status: str
    x: tuple | None
    objective_value: Fraction | None


def _bound_list(bounds, nvars, default):
    if bounds is None:
        return tuple(default for _ in range(nvars))
    out = tuple(None if b is None else as_fraction(b) for b in bounds)
    if len(out) != nvars:
        raise ValueError("bounds length does not match variable count")
    return out


def linear_program(objective, lhs, senses, rhs, lower=None, upper=None):
    """Validate and pack an LP. lower defaults to all 0, upper to all None."""
    objective = tuple(fraction_vector(objective).tolist())
    nvars = len(objective)
    if nvars == 0:
        raise ValueError("need at least one variable")
    rows = [list(r) for r in lhs]
    if rows:
        mat = fraction_matrix(rows)
        if mat.shape[1] != nvars:
            raise ValueError("constraint row length does not match variable count")
    else:
        mat = np.empty((0, nvars), dtype=object)
    senses = tuple(senses)
    rhs = tuple(fraction_vector(rhs).tolist())
    if len(senses) != mat.shape[0] or len(rhs) != mat.shape[0]:
        raise ValueError("senses/rhs length does not match row count")
    for s in senses:
        if s not in SENSES:
            raise ValueError(f"unknown sense {s!r}")
    return LinearProgram(
        objective=objective,
        lhs=mat,
        senses=senses,
        rhs=rhs,
        lower=_bound_list(lower, nvars, Fraction(0)),
        upper=_bound_list(upper, nvars, None),
    )


def _price_out(tableau, cost, basis):
    """Append the reduced-cost row of cost to the tableau, pricing out every
    basic column (each is a unit column of the constraint rows)."""
    tableau.append(int_row(list(cost) + [Fraction(0)]))
    for i, b in enumerate(basis):
        pivot(tableau, i, b)


def _iterate(tableau, basis, ncols):
    """Run Bland-rule simplex iterations; return 'optimal' or 'unbounded'.

    The constraint rows come first, one per basis entry; the last row holds
    the reduced costs, so one pivot updates both. Rows are integer rows
    (linalg.int_row): signs are read off the ints. Of the rows tied at the
    minimum ratio, the one with the least basic variable leaves.
    """
    while True:
        zrow = tableau[-1]
        col = next((j for j in range(ncols) if zrow[j] < 0), None)
        if col is None:
            return "optimal"
        tied = min_ratio_rows(tableau, range(len(basis)), col)
        if not tied:
            return "unbounded"
        leave = min(tied, key=basis.__getitem__)
        pivot(tableau, leave, col)
        basis[leave] = col


def solve_lp(lp):
    """Solve an LP exactly.

    Two-phase simplex on the standard-form rewrite of the problem. Bland's
    rule picks both the entering and the leaving variable, so the run never
    cycles and is fully deterministic.
    """
    if not isinstance(lp, LinearProgram):
        raise TypeError("expected a LinearProgram")
    nvars = lp.nvars

    # rewrite each variable as a nonnegative combination: x_j = const + sum sign*t
    const = []
    terms = []
    nstd = 0
    bound_rows = []
    for j in range(nvars):
        lo, up = lp.lower[j], lp.upper[j]
        if lo is not None:
            if up is not None:
                if up < lo:
                    return LpSolution("infeasible", None, None)
                bound_rows.append((nstd, up - lo))
            const.append(lo)
            terms.append(((nstd, 1),))
            nstd += 1
        elif up is not None:
            const.append(up)
            terms.append(((nstd, -1),))
            nstd += 1
        else:
            const.append(Fraction(0))
            terms.append(((nstd, 1), (nstd + 1, -1)))
            nstd += 2

    raw = []
    for i in range(lp.lhs.shape[0]):
        coeffs = [Fraction(0)] * nstd
        shift = Fraction(0)
        for j in range(nvars):
            a = lp.lhs[i, j]
            if a == 0:
                continue
            shift += a * const[j]
            for t, sign in terms[j]:
                coeffs[t] += a if sign > 0 else -a
        raw.append((coeffs, lp.senses[i], lp.rhs[i] - shift))
    for t, ub in bound_rows:
        coeffs = [Fraction(0)] * nstd
        coeffs[t] = Fraction(1)
        raw.append((coeffs, "<=", ub))

    nslack = sum(1 for _, s, _ in raw if s != "=")
    ncols = nstd + nslack
    rows = []
    slack_sign = {}
    k = 0
    for coeffs, sense, b in raw:
        row = coeffs + [Fraction(0)] * nslack + [b]
        if sense != "=":
            row[nstd + k] = Fraction(1) if sense == "<=" else Fraction(-1)
            slack_sign[len(rows)] = (nstd + k, row[nstd + k])
            k += 1
        if b < 0:
            row = [-e for e in row]
            if len(rows) in slack_sign:
                c, s = slack_sign[len(rows)]
                slack_sign[len(rows)] = (c, -s)
        rows.append(row)

    # crash basis: a +1 slack can start basic, every other row gets an artificial
    basis = []
    art_cols = []
    for i in range(len(rows)):
        if i in slack_sign and slack_sign[i][1] > 0:
            basis.append(slack_sign[i][0])
        else:
            art_cols.append(ncols + len(art_cols))
            basis.append(art_cols[-1])
    # each full standard-form row becomes an integer row only here: a
    # positive row scale changes no sign and no ratio within a row
    for i, row in enumerate(rows):
        ext = [Fraction(0)] * len(art_cols)
        if basis[i] >= ncols:
            ext[basis[i] - ncols] = Fraction(1)
        rows[i] = int_row(row[:-1] + ext + [row[-1]])
    if art_cols:
        total = ncols + len(art_cols)
        cost1 = [Fraction(0)] * ncols + [Fraction(1)] * len(art_cols)
        _price_out(rows, cost1, basis)
        _iterate(rows, basis, total)
        if rows.pop()[-2] < 0:
            return LpSolution("infeasible", None, None)
        # pivot leftover artificials out; an all-zero row is redundant
        for i in range(len(rows)):
            if basis[i] >= ncols:
                col = next((j for j in range(ncols) if rows[i][j] != 0), None)
                if col is not None:
                    pivot(rows, i, col)
                    basis[i] = col
        keep = [i for i in range(len(rows)) if basis[i] < ncols]
        rows = [reduced(rows[i][:ncols] + rows[i][-2:]) for i in keep]
        basis = [basis[i] for i in keep]

    cost2 = [Fraction(0)] * ncols
    for j in range(nvars):
        cj = lp.objective[j]
        if cj == 0:
            continue
        for t, sign in terms[j]:
            cost2[t] += cj if sign > 0 else -cj
    _price_out(rows, cost2, basis)
    if _iterate(rows, basis, ncols) == "unbounded":
        return LpSolution("unbounded", None, None)

    std = [Fraction(0)] * nstd
    for i, b in enumerate(basis):
        if b < nstd:
            std[b] = Fraction(rows[i][-2], rows[i][-1])
    x = []
    for j in range(nvars):
        val = const[j]
        for t, sign in terms[j]:
            val += std[t] if sign > 0 else -std[t]
        x.append(val)
    value = sum((cj * xj for cj, xj in zip(lp.objective, x)), Fraction(0))
    return LpSolution("optimal", tuple(x), value)
