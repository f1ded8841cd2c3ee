"""Acceptance gate: twelve end-to-end checks at fixed tolerances.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them all)
and then asserts, so the suite fails loudly if any check regresses. All
comparisons are exact; the only tolerances are the wall-clock caps stated
inline.
"""

import random
import time
from fractions import Fraction

from rankgames import (
    MixedProfile,
    RankFactorization,
    approx_absolute,
    approx_relative,
    block_game,
    build_polyhedra,
    enumerate_by_supports,
    enumerate_equilibria,
    enumerate_vertices,
    equilibrium_survives_perturbation,
    identity_game,
    is_nondegenerate,
    keiding_phi,
    loss,
    perturb_game,
    polynomial_kernel_game,
    qp_objective,
    rank1_family,
    squared_difference_family,
    svd_truncate,
    tau,
)

from helpers import (
    connected_component_count,
    profile_set,
    random_game,
    random_profile,
)


def report(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def closed_form_rank1_set(d):
    f = Fraction
    out = set()
    for t in range(d):
        e = tuple(f(int(i == t)) for i in range(d))
        out.add(MixedProfile(e, e))
    for t in range(d - 1):
        h = tuple(f(1, 2) if i in (t, t + 1) else f(0) for i in range(d))
        out.add(MixedProfile(h, h))
    return out


def test_criterion_01_rank1_equilibrium_count():
    start = time.perf_counter()
    ok = True
    for d in range(2, 7):
        eqset = enumerate_equilibria(rank1_family(d))
        ok = ok and len(eqset.reports) == 2 * d - 1
        ok = ok and profile_set(eqset.reports) == closed_form_rank1_set(d)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10
    report(1, ok, f"2d-1 equilibria, exact closed-form sets, d=2..6 "
                  f"({elapsed:.2f}s < 10s)")


def test_criterion_02_vertex_census():
    start = time.perf_counter()
    ok = True
    for d in range(2, 7):
        _, q = build_polyhedra(rank1_family(d))
        verts = enumerate_vertices(q)
        ok = ok and len(verts) == d * (d * d + 5) // 6
        class2 = sum(
            1 for v in verts
            if sum(1 for e in v.point[:d] if e != 0) == 2
        )
        ok = ok and class2 == sum(k * (d - k) for k in range(1, d))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30
    report(2, ok, f"census d(d^2+5)/6 and class-2 count, d=2..6 "
                  f"({elapsed:.2f}s < 30s)")


def test_criterion_03_two_best_responses():
    ok = True
    for d in range(2, 7):
        p, q = build_polyhedra(rank1_family(d))
        for poly in (p, q):
            for v in enumerate_vertices(poly):
                ok = ok and len(v.binding & poly.br_labels) <= 2
    report(3, ok, "every P/Q vertex of the family has <= 2 best responses, "
                  "d=2..6")


def test_criterion_04_nondegeneracy_and_components():
    ok = True
    for d in range(2, 7):
        g = rank1_family(d)
        ok = ok and is_nondegenerate(g)
        eqset = enumerate_equilibria(g)
        ok = ok and connected_component_count(g, eqset) == 2 * d - 1
    report(4, ok, "family games nondegenerate with 2d-1 components, d=2..6")


def test_criterion_05_block_hierarchy():
    g = block_game(identity_game(2), rank1_family(3))
    count = len(enumerate_equilibria(g).reports)
    ok = count >= 15
    report(5, ok, f"block(identity(2), rank1(3)) has {count} >= 15 equilibria")


def test_criterion_06_counting_formulas():
    ok = tau(2) == 3 and tau(4) == 15 == 2 ** 4 - 1 and tau(6) == 75
    ok = ok and keiding_phi(2, 4) - 1 == 3
    ok = ok and keiding_phi(3, 6) - 1 == 7
    ok = ok and keiding_phi(4, 8) - 1 == 19
    for d in (2, 3, 4):
        count = len(enumerate_equilibria(identity_game(d)).reports)
        ok = ok and count == 2 ** d - 1 <= keiding_phi(d, 2 * d) - 1
    report(6, ok, "tau values, Keiding bounds, identity counts within bound")


def test_criterion_07_zero_sum_reduction():
    from rankgames import BimatrixGame, additive_to_zero_sum
    rng = random.Random(70707)
    ok = True
    for _ in range(20):
        m, n = rng.randint(2, 4), rng.randint(2, 4)
        u = [rng.randint(-6, 6) for _ in range(m)]
        v = [rng.randint(-6, 6) for _ in range(n)]
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        b = [[u[i] + v[j] - a[i][j] for j in range(n)] for i in range(m)]
        g = BimatrixGame(a, b)
        z = additive_to_zero_sum(g, u, v)
        ok = ok and z.norm_c == 0
        ok = ok and set(enumerate_by_supports(g)) == set(enumerate_by_supports(z))
    report(7, ok, "20 random additive-sum games keep their equilibria "
                  "after the zero-sum rewrite")


def test_criterion_08_perturbation_survival():
    rng = random.Random(80808)
    ok = True
    done = 0
    while done < 20:
        m, n = rng.randint(2, 4), rng.randint(2, 4)
        g = random_game(rng, m, n)
        if g.norm_c == 0:
            continue
        cp = svd_truncate(g.c, 1)
        if max(abs(e) for e in (cp - g.c).flat) >= g.norm_c:
            continue  # the criterion presupposes eps < 1
        pert = perturb_game(g, cp)
        for p in enumerate_by_supports(g):
            ok = ok and equilibrium_survives_perturbation(pert, p)
        done += 1
    report(8, ok, "20 random games: exact equilibria stay 3*eps-approximate "
                  "after rank-1 truncation")


def test_criterion_09_absolute_approximation():
    ok = True
    worst = 0.0
    for d in (4, 6, 8, 10):
        g = rank1_family(d)
        for eps in (Fraction(1, 10), Fraction(1, 20)):
            start = time.perf_counter()
            rep = approx_absolute(g, eps)
            elapsed = time.perf_counter() - start
            worst = max(worst, elapsed)
            ok = ok and loss(g, rep.profile) <= eps * g.norm_c
            ok = ok and elapsed < 60
    report(9, ok, f"absolute scheme meets eps*|A+B| on d=4,6,8,10 at "
                  f"eps=1/10,1/20 (worst run {worst:.2f}s < 60s)")


def test_criterion_10_relative_approximation():
    ok = True
    worst = 0.0
    for d in (2, 3, 4):
        g = rank1_family(d)
        u = tuple(Fraction(2 * t) for t in range(1, d + 1))
        decomp = RankFactorization(shape=(d, d), pairs=((u, u),))
        for eps in (Fraction(1, 2), Fraction(1, 4)):
            start = time.perf_counter()
            rep = approx_relative(g, eps, decomp=decomp)
            elapsed = time.perf_counter() - start
            worst = max(worst, elapsed)
            x, y = rep.profile.x, rep.profile.y
            v1 = max(sum(g.a[i, j] * y[j] for j in range(d)) for i in range(d))
            v2 = max(sum(x[i] * g.b[i, j] for i in range(d)) for j in range(d))
            s = v1 + v2
            bilinear = sum(x[i] * g.c[i, j] * y[j]
                           for i in range(d) for j in range(d))
            rho = 1 - 1 / (1 + eps) ** 2
            ok = ok and s - bilinear <= rho * s
            ok = ok and elapsed < 60
    report(10, ok, f"relative scheme meets s - xCy <= (1-1/(1+eps)^2) s on "
                   f"d=2,3,4 at eps=1/2,1/4 (worst run {worst:.2f}s < 60s)")


def test_criterion_11_oracle_equivalence():
    ok = True
    families = (
        [rank1_family(d) for d in range(2, 7)]
        + [squared_difference_family(d) for d in range(2, 6)]
        + [identity_game(d) for d in range(2, 5)]
        + [block_game(identity_game(2), rank1_family(3)),
           polynomial_kernel_game(range(1, 5), (1, 0, -1))]
    )
    for g in families:
        ok = ok and set(enumerate_by_supports(g)) == \
            profile_set(enumerate_equilibria(g).reports)
    rng = random.Random(111111)
    done = 0
    while done < 50:
        g = random_game(rng, rng.randint(2, 4), rng.randint(2, 4))
        if not is_nondegenerate(g):
            continue
        ok = ok and set(enumerate_by_supports(g)) == \
            profile_set(enumerate_equilibria(g).reports)
        done += 1
    report(11, ok, "vertex enumeration and support enumeration agree on all "
                   "families and 50 random nondegenerate games")


def test_criterion_12_qp_identity():
    rng = random.Random(121212)
    ok = True
    for _ in range(200):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        g = random_game(rng, m, n)
        p = random_profile(rng, m, n)
        ok = ok and qp_objective(g, p) == loss(g, p)
    report(12, ok, "qp objective equals the loss on 200 random pairs")
