"""Approximate equilibria for low-rank payoff sums: three complementary tools.

1. Truncate-and-perturb: replace A + B by a lower-rank matrix C' and split
   the difference between the players. Exact equilibria of the original
   remain 3 eps-approximate in the perturbed game, with
   eps = |C' - (A+B)| / |A+B|.
2. Absolute grid scheme: factor A + B into k rank-one terms, grid each
   bilinear score, and solve one small LP per cell. The returned profile has
   loss at most eps |A+B|.
3. Relative grid scheme: geometric grids deliver the multiplicative bound
   s - x(A+B)y <= (1 - 1/(1+eps)^2) s where s is the sum of both players'
   best-response payoffs.

Everything below is exact rational arithmetic end to end; floats appear only
transiently inside the SVD used to pick the truncation, and are rationalized
before any game is built.
"""

from fractions import Fraction

from rankgames import (
    BimatrixGame,
    approx_absolute,
    approx_relative,
    enumerate_equilibria,
    equilibrium_survives_perturbation,
    loss,
    perturb_game,
    rank1_family,
    svd_truncate,
)

print(__doc__)

print("--- truncate and perturb ---")
game = BimatrixGame([[3, 1], [1, 3]], [[2, 1], [1, 0]])
print(f"rank(A+B) = {game.rank_c}, |A+B| = {game.norm_c}")
truncated = svd_truncate(game.c, 1)
pert = perturb_game(game, truncated)
print(f"rank-1 truncation changes entries by at most {pert.eps} * |A+B|")
for profile in enumerate_equilibria(game).profiles:
    survived = equilibrium_survives_perturbation(pert, profile)
    x = ",".join(str(e) for e in profile.x)
    y = ",".join(str(e) for e in profile.y)
    print(f"  equilibrium x=({x}) y=({y}) stays 3*eps-approximate: {survived}")
print()

print("--- absolute scheme ---")
g = rank1_family(5)
for eps in (Fraction(1, 5), Fraction(1, 10), Fraction(1, 20)):
    rep = approx_absolute(g, eps)
    print(f"  eps = {eps}: loss {rep.loss} <= {eps * g.norm_c} = eps * |A+B|")
print("shrinking eps never worsens the verified loss; here the family's")
print("exact equilibria sit on the grid, so the loss is already zero.")
print()

# a game whose equilibrium cell is *not* centered on the optimum, so the
# guarantee is visibly doing work:
uu = BimatrixGame([[2, 4], [4, 8]], [[2, 4], [4, 8]])
for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
    rep = approx_absolute(uu, eps)
    print(f"  eps = {eps}: loss {rep.loss} <= {eps * uu.norm_c}")
print()

print("--- relative scheme ---")
for eps in (Fraction(1, 2), Fraction(1, 4)):
    rep = approx_relative(uu, eps)
    x, y = rep.profile.x, rep.profile.y
    bilinear = sum(x[i] * uu.c[i, j] * y[j] for i in range(2) for j in range(2))
    s = loss(uu, rep.profile) + bilinear
    print(f"  eps = {eps}: gap {rep.loss} out of s = {s}, "
          f"certified ratio bound {rep.parameter}")
