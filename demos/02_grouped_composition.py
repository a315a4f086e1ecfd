"""Grouped composition: big systems from small ones, rank under control.

Orthogonality to the layout code G(v,k) is exactly the same thing as
being a union of 3^k order-T sub-systems (one per point group) plus one
transversal design per zero-sum triple of groups.  Composing arbitrary
ingredients therefore always lands at 3-rank <= v-k-1, and the
ingredients can be read back off the composed system.
"""

import random

from trisys import (
    compose,
    decompose,
    generator_gvk,
    is_orthogonal,
    min_rank,
    p_rank,
    random_decomposition,
    row_space,
)

rng = random.Random(0)

# Three order-7 systems plus one transversal design -> order 21.
dec = random_decomposition(1, 7, rng)
s = compose(dec)
print(f"composed: v={s.v}, blocks={len(s.blocks)}")
print("orthogonal to G(21,1):", is_orthogonal(s, row_space(generator_gvk(21, 1))))
print(f"3-rank = {p_rank(s.design, 3)}, minimum possible = {min_rank(21)}")

# The composition is a bijection: decompose recovers every ingredient.
back = decompose(s, 1)
print("decompose(compose(d)) == d:", back == dec)
print("sub-system orders:", [sub.v for sub in back.sub_systems])
print("transversal designs:", {k: len(td.blocks) for k, td in back.tds.items()})

# Block counts always satisfy the splitting identity.
v, m, t = s.v, 3, 7
assert len(s.blocks) == m * t * (t - 1) // 6 + (m * (m - 1) // 6) * t * t == v * (v - 1) // 6
print("block-count identity holds:", len(s.blocks), "=", v, "*", v - 1, "/ 6")
