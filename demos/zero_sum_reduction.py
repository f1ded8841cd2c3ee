"""Games whose payoff sum is additively separable reduce to zero-sum games.

If a_ij + b_ij = u_i + v_j, subtract v_j from the row player's payoffs and
u_i from the column player's. Each player's payoff moves by an amount they
do not control, so best responses (and equilibria) are untouched, while the
payoff sum becomes identically zero. The rewritten game is then solvable by
a single minimax linear program.
"""

from rankgames import (
    BimatrixGame,
    additive_to_zero_sum,
    enumerate_equilibria,
    find_additive_decomposition,
    solve_zero_sum,
)

print(__doc__)

a = [[3, 1], [0, 5]]
b = [[-1, 3], [4, 1]]
game = BimatrixGame(a, b)
print("payoff sum A + B:")
for row in game.c:
    print("  " + " ".join(str(e) for e in row))

split = find_additive_decomposition(game.c)
assert split is not None, "this demo game is additively separable"
u, v = split
print(f"additive split found: u = {tuple(map(str, u))}, "
      f"v = {tuple(map(str, v))}")
print()

zs = additive_to_zero_sum(game, u, v)
print("after the rewrite, A' + B' is the zero matrix:",
      all(e == 0 for e in zs.c.flat))

rep = solve_zero_sum(zs)
x = ",".join(str(e) for e in rep.profile.x)
y = ",".join(str(e) for e in rep.profile.y)
print(f"minimax LP: value {rep.payoff1} at x = ({x}), y = ({y})")
print()

orig = set(enumerate_equilibria(game).profiles)
reduced = set(enumerate_equilibria(zs).profiles)
print(f"vertex enumeration on the original:  {len(orig)} equilibria")
print(f"vertex enumeration on the rewrite:   {len(reduced)} equilibria")
print(f"identical equilibrium sets: {orig == reduced}")
assert rep.profile in reduced
