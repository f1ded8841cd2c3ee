"""Counting formulas: lower bounds, upper bounds, and their consistency."""

import pytest

from rankgames import (
    block_hierarchy_count,
    bound_report,
    enumerate_equilibria,
    f_count,
    identity_game,
    keiding_phi,
    rank_component_bound,
    tau,
)


def test_f_count_values():
    assert [f_count(n) for n in range(4)] == [1, 3, 13, 63]
    with pytest.raises(ValueError):
        f_count(-1)


def test_tau_values_and_tightness():
    assert tau(2) == 3 == 2 ** 2 - 1
    assert tau(4) == 15 == 2 ** 4 - 1
    assert tau(6) == 75
    # the identity game meets the bound at d = 2 and d = 4
    assert len(enumerate_equilibria(identity_game(2)).reports) == tau(2)
    assert len(enumerate_equilibria(identity_game(4)).reports) == tau(4)
    for bad in (0, 3, 5, -2):
        with pytest.raises(ValueError):
            tau(bad)


def test_keiding_phi_values():
    assert keiding_phi(2, 4) == 4
    assert keiding_phi(3, 6) == 8
    assert keiding_phi(4, 8) == 20
    assert keiding_phi(5, 10) == 42
    assert keiding_phi(6, 12) == 112
    with pytest.raises(ValueError):
        keiding_phi(0, 4)
    with pytest.raises(ValueError):
        keiding_phi(4, 3)


def test_counts_stay_below_keiding_bound():
    for d in range(2, 7):
        assert 2 ** d - 1 <= keiding_phi(d, 2 * d) - 1
    # and the enumerated identity game actually attains its count
    assert len(enumerate_equilibria(identity_game(3)).reports) == 7 <= 7


def test_rank_component_bound():
    assert rank_component_bound(4, 1) == 36
    assert rank_component_bound(3, 1) == 9
    assert rank_component_bound(5, 2) == 100
    with pytest.raises(ValueError):
        rank_component_bound(2, 2)  # needs k + 1 <= d
    with pytest.raises(ValueError):
        rank_component_bound(0, 0)


def test_block_hierarchy_count():
    assert block_hierarchy_count(5, 3) == tau(2) * 5 == 15
    assert block_hierarchy_count(7, 3) == tau(2) * 9 == 27
    assert block_hierarchy_count(7, 5) == tau(4) * 5 == 75
    with pytest.raises(ValueError):
        block_hierarchy_count(5, 4)  # k must be odd
    with pytest.raises(ValueError):
        block_hierarchy_count(5, 1)
    with pytest.raises(ValueError):
        block_hierarchy_count(2, 3)  # needs d >= k


def test_bound_report():
    rep = bound_report(4, k=1)
    assert rep.d == 4 and rep.k == 1
    assert rep.tau_lower == 15
    assert rep.keiding_upper == 19
    assert rep.component_bound == 36
    rep = bound_report(3)
    assert rep.tau_lower is None  # odd d has no tau value
    assert rep.keiding_upper == 7
    assert rep.component_bound is None
    with pytest.raises(ValueError):
        bound_report(0)
    with pytest.raises(ValueError):
        bound_report(3, k=-1)
