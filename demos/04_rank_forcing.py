"""Forcing the exact 3-rank when aligned ingredients collapse it.

Composition guarantees rank AT MOST v-k-1, but identical, well-aligned
ingredients leak extra dual vectors.  Replacing just the first sub-system
with a permuted copy of itself removes every stray vector: the permutation
is built so the new sub-system's dual meets the relevant layout code only
in the all-one line.
"""

from trisys import (
    Decomposition,
    affine_geometry,
    compose,
    dual_space,
    force_exact_rank,
    generator_gvk,
    latin_with_mate,
    p_rank,
    row_space,
    td_from_latin,
)

# Three aligned copies of the 9-point affine system, cyclic transversal
# design: the dual grows one dimension too large.
ag2 = affine_geometry(2).sts
dec = Decomposition(
    k=1, T=9, sub_systems=(ag2, ag2, ag2),
    tds={(0, 1, 2): td_from_latin(latin_with_mate(9)[0])},
)
s = compose(dec)
print(f"composed on v=27: 3-rank={p_rank(s.design, 3)} (bound is 25)")
print(f"dual dimension: {dual_space(s.design).dim} (want 2)")

forced = force_exact_rank(s, dec.k)
print(f"after forcing:   3-rank={p_rank(forced.design, 3)}")
print("dual is exactly G(27,1):",
      dual_space(forced.design) == row_space(generator_gvk(27, 1)))

# Only the first 9 points were touched.
changed = {b for b in s.blocks if b[2] < 9} ^ {b for b in forced.blocks if b[2] < 9}
untouched = {b for b in s.blocks if b[2] >= 9} == {b for b in forced.blocks if b[2] >= 9}
print(f"first-group blocks changed: {len(changed) // 2} swapped, rest untouched: {untouched}")
