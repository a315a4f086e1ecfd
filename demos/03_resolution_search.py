"""Resolution search by exact cover, with honest negative answers.

A parallel class is an exact cover of the points by blocks; a resolution
is an exact cover of the block set by parallel classes.  Running the
bitset Algorithm X solver twice settles resolvability, and the node budget
keeps "no answer within budget" distinct from "proven impossible".
"""

from trisys import SearchLimits, kts15, search_resolution, small_sts, verify_resolution

# The unique order-9 system resolves instantly.
s9 = small_sts(9)
out = search_resolution(s9.design)
print(f"order 9: classes enumerated={out.classes_found}, "
      f"resolution classes={out.resolution.n_classes}, nodes={out.nodes_used}")

# The stock order-15 system gets its resolution from this same search;
# running it again reports the full outcome.
s15, stock = kts15()
out = search_resolution(s15.design)
print(f"order 15: {out.classes_found} parallel classes, "
      f"resolution found with {out.resolution.n_classes} classes "
      f"(stock copy has {stock.n_classes})")
print("search result valid:", verify_resolution(s15.design, out.resolution).ok)

# The Bose system of order 21 is NOT resolvable: its 64 parallel classes
# cannot cover all 70 blocks, and the complete search proves it.
out = search_resolution(small_sts(21).design, SearchLimits(node_budget=10**6))
print(f"order 21 (stock): resolution={out.resolution}, "
      f"budget_exceeded={out.budget_exceeded}, proven_absent={out.exhausted}")

# Starving the budget flips the report: no proof, just an exhausted search.
out = search_resolution(small_sts(21).design, SearchLimits(node_budget=10))
print(f"order 21 with 10-node budget: budget_exceeded={out.budget_exceeded}")
