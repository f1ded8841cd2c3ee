"""Equilibrium counting bounds for d x d games."""

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import check_work


def f_count(n):
    """f(n) = sum over k of C(n+k, k) * C(n, k).

    Central Delannoy-type count underlying the tau lower bound; f(0..3) are
    1, 3, 13, 63.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return sum(comb(n + k, k) * comb(n, k) for k in range(n + 1))


def tau(d):
    """Lower bound tau(d) = f(d/2) + f(d/2 - 1) - 1 on the maximal number of
    equilibria of a d x d game; defined for even d >= 2."""
    if d < 2 or d % 2 != 0:
        raise ValueError("tau is defined for even d >= 2")
    h = d // 2
    return f_count(h) + f_count(h - 1) - 1


def keiding_phi(d, k):
    """Phi(d, k): the maximal number of vertices of a pointed polyhedron of
    dimension d cut out by k inequalities.

    Even d: (k / (k - d/2)) * C(k - d/2, k - d); odd d: 2 * C(k - (d+1)/2, k - d).
    The count of equilibria of a d x d game is < Phi(d, 2d), i.e. at most
    Phi(d, 2d) - 1.
    """
    if d < 1 or k < d:
        raise ValueError("need k >= d >= 1")
    if d % 2 == 0:
        h = d // 2
        value = Fraction(k, k - h) * comb(k - h, k - d)
        if value.denominator != 1:
            raise RuntimeError("Phi must be an integer; this is a bug")
        return int(value)
    h = (d + 1) // 2
    return 2 * comb(k - h, k - d)


def rank_component_bound(d, k):
    """Upper bound C(d, k+1)^2 on the number of connected equilibrium
    components of a d x d game whose payoff matrices both have rank <= k.

    Requires k + 1 <= d (with k + 1 > d the binomial degenerates and the
    statement gives no information)."""
    if d < 1 or k < 0:
        raise ValueError("need d >= 1 and k >= 0")
    if k + 1 > d:
        raise ValueError("bound needs k + 1 <= d")
    return comb(d, k + 1) ** 2


def block_hierarchy_count(d, k):
    """Equilibria achievable at payoff-sum rank k in dimension d by block
    composition: tau(k-1) * (2(d-k) + 1).

    A (k-1) x (k-1) game meeting the tau count (payoff-sum rank k - 1,
    possible for k - 1 <= 4 with identity-style coordination games) is
    combined with d - k + 1 further diagonal blocks contributing rank 1 in
    total. Needs odd k >= 3 (so tau(k-1) exists) and d >= k.
    """
    if k < 3 or k % 2 == 0:
        raise ValueError("needs odd k >= 3")
    if d < k:
        raise ValueError("needs d >= k")
    return tau(k - 1) * (2 * (d - k) + 1)


@dataclass(frozen=True)
class BoundReport:
    """Bundle of the bounds that apply to a given dimension (and rank).

    tau_lower is None for odd d; component_bound is None when no rank was
    requested or when k + 1 > d.
    """

    d: int
    k: int | None
    tau_lower: int | None
    keiding_upper: int
    component_bound: int | None


def bound_report(d, k=None):
    """Evaluate the applicable bounds for dimension d (and optional rank k).

    Above errors.MAX_WORK strategies a side, CapExceededError is raised
    before any bound is computed: the counts grow exponentially in d.
    """
    check_work(d, "strategies a side")
    if d < 1:
        raise ValueError("d must be positive")
    if k is not None and k < 0:
        raise ValueError("k must be nonnegative")
    tau_lower = tau(d) if d % 2 == 0 and d >= 2 else None
    keiding_upper = keiding_phi(d, 2 * d) - 1
    component_bound = None
    if k is not None and k + 1 <= d:
        component_bound = rank_component_bound(d, k)
    return BoundReport(
        d=d,
        k=k,
        tau_lower=tau_lower,
        keiding_upper=keiding_upper,
        component_bound=component_bound,
    )
