"""Saturating a partition family under an action, and the cover calculus.

Pulling an equivalence relation back along a translation gives another
equivalence relation; closing a family under all translation pullbacks
and pairwise meets reaches a fixed point after finitely many rounds.
Covers carry the star/wedge/order combinators that underlie dimension
bounds for uniform structures.
"""

from functools import reduce

from stonework import (
    Cover,
    Partition,
    cover_order,
    cover_star,
    cover_wedge,
    refines,
    saturate,
    validate_action,
    validate_monoid,
)
from stonework.unif import is_meet_closed, is_saturated_under

# three maps on three points: identity, clamp-up, constant-top
table = [[0, 1, 2], [1, 2, 2], [2, 2, 2]]
monoid = validate_monoid(table, 0)
action = validate_action(monoid, 3, ((0, 1, 2), (1, 2, 2), (2, 2, 2)))

gamma = [Partition.from_classes(3, [[0, 1], [2]])]
family = saturate(action, gamma)
print("saturating {{0,1},{2}} under the clamp action:")
for p in family.members:
    print("  ", p.classes())
print("closed:", "meet-closed" if is_meet_closed(family) else "",
      "saturated" if is_saturated_under(family, action) else "")

# kernel partitions of two-valued functions separate points when their
# meet is the discrete partition
indicators = [[1 if x == i else 0 for x in range(4)] for i in range(4)]
met = reduce(Partition.meet, map(Partition.from_class_ids, indicators))
print(f"\nmeet of the four singleton-indicator kernels on 4 points: "
      f"{met.num_classes()} classes (discrete = separating)")

# cover combinators
p = Cover.from_blocks([[0, 1], [1, 2], [2, 3]])
q = Cover.from_blocks([[0, 1, 2], [3]])
print("\ncover P:", p.sorted_blocks())
print("cover Q:", q.sorted_blocks())
print("P wedge Q:", cover_wedge(p, q).sorted_blocks())
print("star of P:", cover_star(p).sorted_blocks())
print("P refines its own star:", refines(p, cover_star(p)))
print("P star-refines Q:", refines(cover_star(p), q))
print("orders: P ->", cover_order(p), " Q ->", cover_order(q),
      " wedge ->", cover_order(cover_wedge(p, q)))
assert cover_order(cover_wedge(p, q)) <= cover_order(p) * cover_order(q)
