"""The one work bound, errors.MAX_WORK, and the guards that read it."""

from fractions import Fraction

import pytest

from rankgames import (
    CapExceededError,
    approx_relative,
    bound_report,
    enumerate_by_supports,
    enumerate_equilibria,
    is_nondegenerate,
    rank1_family,
)

from rankgames import errors
from rankgames.approx import _geometric_axis, _interval_axis


def _fail(*args, **kwargs):
    raise AssertionError("work ran before the bound was checked")


def test_every_guard_reads_max_work(monkeypatch):
    monkeypatch.setattr(errors, "MAX_WORK", 69)
    f = Fraction
    # the vertex walk: its count on rank1(7), d = 8 plus the bases seen,
    # reaches 70 a side
    for walk in (enumerate_equilibria, is_nondegenerate):
        with pytest.raises(CapExceededError, match="above the bound 69"):
            walk(rank1_family(7))
    # support pairs: comb(8, 4) - 1 = 69 admitted, comb(10, 5) - 1 = 251 not
    assert len(enumerate_by_supports(rank1_family(4))) == 7
    with pytest.raises(CapExceededError, match="251 support pairs"):
        enumerate_by_supports(rank1_family(5))
    # bound_report: d = 69 admitted, d = 70 refused before any bound is
    # computed
    assert bound_report(69).d == 69
    with monkeypatch.context() as mp:
        mp.setattr("rankgames.bounds.keiding_phi", _fail)
        with pytest.raises(CapExceededError,
                           match="^70 strategies a side, above the bound 69$"):
            bound_report(70)
    # an interval axis: 69 cells admitted, 70 refused
    assert len(_interval_axis(f(0), f(1), f(1, 69))) == 69
    with pytest.raises(CapExceededError, match="above the bound 69"):
        _interval_axis(f(0), f(1), f(1, 70))
    # a geometric axis: 2^69 is 69 doubling cells; 2^70 is refused by the
    # one comparison, before any cell is built
    assert len(_geometric_axis([f(1), f(2) ** 69], f(1))[0]) == 69
    with monkeypatch.context() as mp:
        mp.setattr("rankgames.approx._axis", _fail)
        with pytest.raises(CapExceededError, match="above the bound 69"):
            _geometric_axis([f(1), f(2) ** 70], f(1))
    # a whole grid: two axes of 12 cells each stay under the bound, their
    # 144 cells do not, and no LP runs
    assert approx_relative(rank1_family(2), f(1, 10)).loss == 0  # 8 x 8
    monkeypatch.setattr("rankgames.approx.StandardForm", _fail)
    with pytest.raises(CapExceededError, match="144 cells in the grid"):
        approx_relative(rank1_family(2), f(1, 16))
