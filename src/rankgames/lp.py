"""Exact linear programming: dual then primal simplex steps from a
slack basis, Bland-type rules throughout, on integer rows inside and
Fractions at the interface."""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .linalg import (
    _fraction_rows,
    as_fraction,
    int_row,
    min_dual_ratio_cols,
    min_ratio_rows,
    pivot,
    reduced,
)

SENSES = ("<=", "=", ">=")


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """Minimize objective . x subject to lhs x (senses) rhs and variable bounds.

    lhs holds the rows as tuples of Fractions. A None in lower/upper means
    that side is unbounded. Row order is part of the problem identity: the
    solver is deterministic for a fixed row order.
    """

    objective: tuple
    lhs: tuple
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
    objective = tuple(as_fraction(e) for e in objective)
    nvars = len(objective)
    if nvars == 0:
        raise ValueError("need at least one variable")
    rows = [list(r) for r in lhs]
    if rows:
        rows = _fraction_rows(rows)
        if len(rows[0]) != nvars:
            raise ValueError("constraint row length does not match variable count")
    senses = tuple(senses)
    rhs = tuple(as_fraction(e) for e in rhs)
    if len(senses) != len(rows) or len(rhs) != len(rows):
        raise ValueError("senses/rhs length does not match row count")
    for s in senses:
        if s not in SENSES:
            raise ValueError(f"unknown sense {s!r}")
    return LinearProgram(
        objective=objective,
        lhs=tuple(map(tuple, rows)),
        senses=senses,
        rhs=rhs,
        lower=_bound_list(lower, nvars, Fraction(0)),
        upper=_bound_list(upper, nvars, None),
    )


def _price_out(tableau, zrow, basis, nonbasic):
    """Append the cost row of the integer row zrow, whose entries run over
    all the variables in index order before its right-hand side and
    denominator, priced out on the basis: over the nonbasic slots it is
    c_N - sum_b c_b row_b, with c the entries of zrow, the sum running over
    the basic variables whose cost is nonzero. A full tableau would price
    these out with one pivot each; here it is one integer row combination
    over the lcm of their rows' denominators, then reduced."""
    priced = [(zrow[b], row) for b, row in zip(basis, tableau) if zrow[b]]
    big = lcm(*(row[-1] for _, row in priced))
    out = [zrow[j] * big for j in nonbasic]
    out.append(zrow[-2] * big)
    for c, row in priced:
        s = c * (big // row[-1])
        out = [e - s * f for e, f in zip(out, row)]
    out.append(zrow[-1] * big)
    tableau.append(reduced(out))


def _iterate(tableau, basis, nonbasic, slots=None):
    """Run Bland-rule simplex iterations; return 'optimal' or 'unbounded'.

    The tableau is in dictionary form: the constraint rows come first, row
    i expressing basic variable basis[i] over the nonbasic variables, slot
    j holding variable nonbasic[j]; the last row holds the reduced costs,
    so one pivot updates both. Rows are integer rows (linalg.int_row):
    signs are read off the ints. Bland's rule runs on variable indices, not
    slots: the lowest-indexed nonbasic variable with a negative reduced
    cost enters, and of the rows tied at the minimum ratio, the one with
    the least basic variable leaves and takes the entering slot. Only the
    slots listed in slots may enter when it is given; any row between the
    constraint rows and the cost row is pivoted along.
    """
    if slots is None:
        slots = range(len(nonbasic))
    while True:
        cost = tableau[-1]
        col = min((j for j in slots if cost[j] < 0),
                  key=nonbasic.__getitem__, default=None)
        if col is None:
            return "optimal"
        tied = min_ratio_rows(tableau, range(len(basis)), col)
        if not tied:
            return "unbounded"
        leave = min(tied, key=basis.__getitem__)
        pivot(tableau, leave, col)
        basis[leave], nonbasic[col] = nonbasic[col], basis[leave]


class StandardForm:
    """The standard-form rewrite of an LP over nonnegative and free
    variables, built once and solved for any right-hand side and objective.

    lhs holds the LP's rows as integer rows (linalg.int_row) over its
    variables, senses their senses, and free one flag per variable: a
    nonnegative variable is one nonnegative standard column, and a free one
    the difference of two. Building the form is the work of a solve that
    does not depend on the right-hand sides of the LP's rows or on its
    objective. Each row gets its slack column. rows[i] is the integer row
    of row i's standard columns, without its slack or its right-hand side,
    and slack[i] is its slack's (column, sign) or None for an equality: a
    slack column is +-1 on its own row and 0 on the others, so the rows
    leave it out: every slack starts basic (_start). General bounds are
    solve_lp's to reduce (_reduce_bounds).

    solve_rows takes and returns integer rows and pairs, and is what the
    grid's cells and solve_lp call. Its simplex runs on dictionary rows
    (linalg.pivot): no row carries a column for a basic variable. Every
    solve starts from one of two dictionaries, the form's own start for
    its right-hand sides (_start) or the dictionary kept from its last
    optimal solve, and runs one path from there (_warm): dual steps, then
    Bland's primal steps, then a lexicographic finish to the named
    optimum (see solve_rows). The kept dictionary is the form's one
    state; a form just built has none, so its first solve starts from
    _start. twin maps each standard column of a free variable to the
    other.
    """

    def __init__(self, lhs, senses, free):
        # each standard column belongs to one variable, so a row's integer
        # form is its LP row's ints laid onto the columns, negated on the
        # second column of a free variable
        free = tuple(free)
        nstd = len(free) + sum(free)
        rows = [[e for a, f in zip(coef, free)
                 for e in ((a, -a) if f else (a,))] + [coef[-1]]
                for coef in lhs]
        slack = []
        k = nstd
        for sense in senses:
            if sense == "=":
                slack.append(None)
            else:
                slack.append((k, 1 if sense == "<=" else -1))
                k += 1

        # each standard column of a free variable maps to the other
        twin = {}
        col = 0
        for f in free:
            if f:
                twin[col], twin[col + 1] = col + 1, col
            col += 1 + f

        self.free = free
        self.nstd = nstd
        self.ncols = k
        self.rows = tuple(rows)
        self.slack = tuple(slack)
        self.twin = twin
        # (rhs, rows, basis, nonbasic) of the last optimal solve
        self._kept = None

    def _start(self, rhs):
        """The start dictionary for the right-hand sides of the LP's rows,
        one (numerator, positive denominator) pair per row, as
        (rhs, rows, basis, nonbasic) the way the form keeps one; None when
        the equality rows alone prove the LP infeasible.

        Every inequality row's slack is basic, its row the LP row times
        the slack's sign, so its right-hand side may be negative: rows[i]
        rescaled to the lcm of its denominator and that of the right-hand
        side in lowest terms, which is int_row of the row's Fractions. The
        standard columns are nonbasic, in index order. Each equality row
        then takes, in row order, the least-indexed nonbasic column that
        is still nonzero on it, by one pivot (linalg.pivot): its row starts
        with a basic artificial variable, which the pivot moves to that
        column's slot, and the slot is dropped, the artificial being 0. An
        equality row left with no nonzero column is dropped when its
        right-hand side is 0 and proves the LP infeasible otherwise. The
        cost row added is that of the sum of the nonbasic variables, 1 in
        every slot: it is dual feasible, so the dual steps of _warm start
        from it as from a kept optimum, and reach feasibility at a basis
        that minimizes that sum, one near the start.
        """
        rows, basis = [], []
        for coef, slack, (b, bden) in zip(self.rows, self.slack, rhs):
            g = gcd(b, bden)
            if g != 1:
                b, bden = b // g, bden // g
            cden = coef[-1]
            big = lcm(cden, bden)
            scale = big // cden
            if slack is not None and slack[1] < 0:
                scale, b = -scale, -b
            row = [scale * e for e in coef[:-1]] if scale != 1 else coef[:-1]
            rows.append(row + [b * (big // bden), big])
            basis.append(None if slack is None else slack[0])
        nonbasic = list(range(self.nstd))
        while None in basis:
            i = basis.index(None)
            # nonbasic stays in index order, so the least-indexed column
            # is the first slot
            j = next((j for j, e in enumerate(rows[i][:-2]) if e), None)
            if j is None:
                if rows[i][-2]:
                    return None
                del rows[i], basis[i]
                continue
            pivot(rows, i, j)
            basis[i] = nonbasic.pop(j)
            rows = [reduced(row[:j] + row[j + 1:]) for row in rows]
        rows.append([1] * len(nonbasic) + [0, 1])
        return list(rhs), rows, basis, nonbasic

    def solve_rows(self, rhs, cost):
        """Solve for the right-hand sides of the LP's rows, one
        (numerator, positive denominator) pair per row, and an objective
        given as the integer row cost (linalg.int_row) over the variables.

        Returns (status, values, value). When status is 'optimal', values
        holds one (numerator, denominator) int pair per variable and value
        is the pair of the objective's value, each denominator positive and
        the pairs not always in lowest terms; otherwise both are None. The
        objective's value is minus the right-hand side of the priced-out
        cost row.

        A solve re-solves from a copy of the dictionary the form kept from
        its last optimal solve (_warm), and its optimum is the named one:
        of the optimal points, the lexicographically greatest in variable
        order, a free variable's value being its first column minus its
        second (_lex_finish). The warm path returns None only when an
        equality row's right-hand side changed or a tie-break objective is
        unbounded; then, and when the form kept no dictionary, the solve
        runs the same path from the start dictionary for rhs (_start),
        where an unbounded tie-break ends the finish where it stands. So
        every result is a function of rhs and cost alone, whatever the
        form solved before: the named optimum whenever every tie-break is
        bounded, and the start path's optimum otherwise. A grid's LP keeps
        its sum rows' right-hand sides and is bounded, so every cell gets
        its named optimum. The kept dictionary is the form's one state, so
        concurrent solves need one form each.
        """
        if len(cost) != len(self.free) + 1:
            raise ValueError("objective length does not match variable count")
        if len(rhs) != len(self.rows):
            raise ValueError("rhs length does not match row count")
        # the cost row over the standard columns is the variables' row,
        # laid out as the rows are: int_row of the Fraction costs
        zrow = [e for c, f in zip(cost, self.free)
                for e in ((c, -c) if f else (c,))]
        zrow += [0] * (self.ncols - self.nstd + 1) + [cost[-1]]
        if self._kept is not None:
            result = self._warm(rhs, zrow)
            if result is not None:
                return result
        start = self._start(rhs)
        if start is None:
            return "infeasible", None, None
        return self._warm(rhs, zrow, start)

    def _warm(self, rhs, zrow, start=None):
        """The solve from a copy of the kept dictionary, or of the start
        dictionary start when it is given; None when the solve must run
        from _start instead.

        A change of delta in row i's right-hand side moves the dictionary's
        right-hand sides by delta B^-1 e_i, which is sign times the column
        of row i's slack, of that (column, sign) pair: the slack's slot
        when it is nonbasic, and the unit column of its own row when it is
        basic. An equality row has no slack, so a change there returns
        None. Dual simplex steps on the cost row, which an optimum leaves
        nonnegative and a start writes positive, then restore primal
        feasibility or prove the LP infeasible: the row with the least
        basic variable among those with a negative right-hand side leaves,
        and the variable entering it is the least-indexed of
        linalg.min_dual_ratio_cols, a Bland-type rule that cannot cycle.
        The new cost is priced out and _iterate finishes.

        The optimum is the face's one point, and so the named optimum, when
        every slot of reduced cost 0 holds the twin of a basic free column
        (_unique): that column is minus its twin's, its reduced cost is 0
        in any cost row, and entering it changes no variable's value.
        Otherwise _lex_finish moves to the named optimum. When a tie-break
        objective is unbounded, the result is None from the kept
        dictionary, and from a start dictionary the optimum where the
        finish stopped. Infeasible and unbounded are proofs, and stand. An
        optimal dictionary is kept; any other result leaves the kept one as
        it was.
        """
        old, rows, basis, nonbasic = start or self._kept
        rows, basis, nonbasic = rows[:], basis[:], nonbasic[:]
        moves = []  # (sign times numerator, denominator, slack column)
        for (b, d), (b0, d0), slack in zip(rhs, old, self.slack):
            num = b * d0 - b0 * d
            if num:
                if slack is None:
                    return None
                moves.append((slack[1] * num, d * d0, slack[0]))
        if moves:
            slot = {v: j for j, v in enumerate(nonbasic)}
            den = lcm(*(d for _, d, _ in moves))
            own = [0] * len(basis)  # a basic slack's move, over den
            via = []  # a nonbasic slack's move over den, and its slot
            for n, d, k in moves:
                n *= den // d
                if k in slot:
                    via.append((n, slot[k]))
                else:
                    own[basis.index(k)] += n
            # the cost row's right-hand side is not read: the new cost is
            # priced out after the dual steps
            for i, row in enumerate(rows[:-1]):
                s = own[i] * row[-1] + sum(n * row[j] for n, j in via)
                if s:
                    g = gcd(s, den)
                    q = den // g
                    rows[i] = reduced([q * e for e in row[:-2]]
                                      + [q * row[-2] + s // g, q * row[-1]])
        while True:
            leave = min((i for i in range(len(basis)) if rows[i][-2] < 0),
                        key=basis.__getitem__, default=None)
            if leave is None:
                break
            tied = min_dual_ratio_cols(rows[-1], rows[leave])
            if not tied:
                return "infeasible", None, None
            col = min(tied, key=nonbasic.__getitem__)
            pivot(rows, leave, col)
            basis[leave], nonbasic[col] = nonbasic[col], basis[leave]
        rows.pop()
        _price_out(rows, zrow, basis, nonbasic)
        if _iterate(rows, basis, nonbasic) == "unbounded":
            return "unbounded", None, None
        ties = [j for j, d in enumerate(rows[-1][:-2]) if not d]
        if not self._unique(basis, nonbasic, ties) and not self._lex_finish(
                rows, basis, nonbasic, ties) and start is None:
            return None
        self._kept = (list(rhs), rows, basis, nonbasic)
        return self._optimum(rows, basis)

    def _lex_finish(self, rows, basis, nonbasic, ties):
        """Move the optimal dictionary rows, in place, to the named optimum:
        of the optimal points, the lexicographically greatest in variable
        order, a free variable's value being its first column minus its
        second. Returns False when a tie-break objective is unbounded, and
        stops there, the rows still optimal for the LP's own cost.

        ties lists the slots whose reduced cost is 0: the optimal face is
        the set of feasible points whose other nonbasic variables are 0.
        For each variable in turn, the objective "maximize it" is priced
        out (_price_out: its one row if it is basic, a unit slot if not)
        and _iterate runs on the tied slots only. Its optimal face is that
        of the points whose tied slots of positive reduced cost are 0, so
        those slots leave ties, until the point is unique (_unique). Every
        pivot is on a slot whose entry in the kept cost row is 0, which
        leaves that row as it is: the dictionary stays optimal for the
        LP's own cost.
        """
        col = 0
        for f in self.free:
            zrow = [0] * (self.ncols + 1) + [1]
            zrow[col] = -1
            if f:
                zrow[col + 1] = 1
            col += 1 + f
            _price_out(rows, zrow, basis, nonbasic)
            status = _iterate(rows, basis, nonbasic, ties)
            tie = rows.pop()
            if status == "unbounded":
                return False
            ties = [j for j in ties if not tie[j]]
            if self._unique(basis, nonbasic, ties):
                break
        return True

    def _unique(self, basis, nonbasic, ties):
        """Whether every tied slot holds the twin of a basic free column."""
        basic = set(basis)
        return all(self.twin.get(nonbasic[j]) in basic for j in ties)

    def _optimum(self, rows, basis):
        """The optimal result of an optimal dictionary: the variables'
        values, each read off its standard columns, and the value."""
        std = [(0, 1)] * self.nstd
        for i, b in enumerate(basis):
            if b < self.nstd:
                std[b] = (rows[i][-2], rows[i][-1])
        values = []
        cols = iter(std)
        for f in self.free:
            p, q = 0, 1
            for sign in ((1, -1) if f else (1,)):
                n, d = next(cols)
                if n:
                    p, q = p * d + sign * n * q, q * d
            values.append((p, q))
        return "optimal", values, (-rows[-1][-2], rows[-1][-1])


def _reduce_bounds(lp):
    """The bounded-variable reduction of lp (Chvátal, Linear Programming,
    1983), in Fractions: (the LP over nonnegative and free variables t,
    one (constant, sign) pair per variable).

    x_j = lo_j + t_j, or up_j - t_j when only an upper bound is given, and
    a free x_j is t_j, free. Each row's right-hand side is shifted by A
    times the constants, and each box adds the row t_j <= up_j - lo_j,
    after the LP's rows and in variable order. An upper bound below its
    lower bound gives a bound row with a negative right-hand side, which
    the dual steps find infeasible. The reduction of a reduced LP is
    itself, with every pair (0, 1). lp is valid, so the reduced LP is
    built directly.
    """
    shift, boxes, lower = [], [], []
    for j, (lo, up) in enumerate(zip(lp.lower, lp.upper)):
        lower.append(None if lo is None and up is None else Fraction(0))
        if lo is None and up is not None:
            shift.append((up, -1))
        else:
            shift.append((Fraction(0) if lo is None else lo, 1))
            if lo is not None and up is not None:
                boxes.append(j)
    rhs = [b - sum(a * c for a, (c, _) in zip(row, shift))
           for row, b in zip(lp.lhs, lp.rhs)]
    rows = [tuple(a * s for a, (_, s) in zip(row, shift)) for row in lp.lhs]
    for j in boxes:
        rows.append(tuple(Fraction(int(i == j)) for i in range(lp.nvars)))
        rhs.append(lp.upper[j] - lp.lower[j])
    objective = tuple(c * s for c, (_, s) in zip(lp.objective, shift))
    senses = lp.senses + ("<=",) * len(boxes)
    return LinearProgram(objective, tuple(rows), senses, tuple(rhs),
                         tuple(lower), (None,) * lp.nvars), shift


def solve_lp(lp):
    """Solve an LP exactly.

    Its bounds are reduced once (_reduce_bounds), and the reduced LP's
    rows become the integer rows of a StandardForm, solved once: the
    right-hand sides enter solve_rows as int pairs, and x and the
    objective's value leave as the Fractions of the LpSolution, the
    constants added back. The form solves from its start dictionary
    (StandardForm._start): dual steps to a feasible basis, then Bland's
    rule picking both the entering and the leaving variable, so the run
    never cycles and is fully deterministic. The point is the named
    optimum, the lexicographically greatest optimal point in variable
    order of the reduced LP, whenever each of its tie-break objectives is
    bounded (StandardForm.solve_rows), so a grid's form and solve_lp give
    one LP one point.
    """
    if not isinstance(lp, LinearProgram):
        raise TypeError("expected a LinearProgram")
    red, shift = _reduce_bounds(lp)
    form = StandardForm([int_row(row) for row in red.lhs], red.senses,
                        [lo is None for lo in red.lower])
    status, values, value = form.solve_rows(
        [(b.numerator, b.denominator) for b in red.rhs],
        int_row(red.objective))
    if status != "optimal":
        return LpSolution(status, None, None)
    x = tuple(c + s * Fraction(*t) for (c, s), t in zip(shift, values))
    return LpSolution(status, x, Fraction(*value) + sum(
        e * c for e, (c, _) in zip(lp.objective, shift)))
