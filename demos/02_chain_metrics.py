"""From nested equivalence relations to an ultra-pseudometric and back.

A finite chain of nested partitions defines a metric by powers of 1/2:
the deeper two points stay related, the closer they are.  The closed
form agrees with the literal infimum over point paths of the worst
single step, and each level is sandwiched between two metric balls.
"""

import random
from fractions import Fraction

from stonework import (
    MonotoneChain,
    Partition,
    d_from_chain,
    minimax_path_distance,
    sup_combine,
)
from stonework.generators import random_chain

chain = MonotoneChain(
    carrier_size=5,
    chain=(
        Partition.from_classes(5, [[0, 1, 2], [3, 4]]),
        Partition.from_classes(5, [[0, 1], [2], [3, 4]]),
        Partition.from_classes(5, [[0, 1], [2], [3], [4]]),
    ),
)
d = d_from_chain(chain)

print("chain levels (coarse to fine):")
for i, level in enumerate(chain.chain, start=1):
    print(f"  level {i}: {level.classes()}")

print("\nresulting distances:")
for x in range(5):
    print("  " + "  ".join(str(d.d(x, y)).rjust(4) for y in range(5)))

print("\nclosed form vs literal path infimum:")
for x, y in [(0, 1), (0, 2), (0, 3), (3, 4)]:
    lit = minimax_path_distance(chain, x, y)
    print(f"  d({x},{y}) = {d.d(x, y)}   inf over paths = {lit}")
    assert d.d(x, y) == lit

print("\nsandwich at every level: level(i+1) <= {d < 2^-i} <= level(i)")
for i in range(len(chain)):
    bound = Fraction(1, 2**i)
    finer, coarser = chain.level(i + 1), chain.level(i)
    for x in range(5):
        for y in range(5):
            if finer.relates(x, y):
                assert d.d(x, y) < bound
            if d.d(x, y) < bound:
                assert coarser.relates(x, y)
print("  holds on all 25 pairs at all levels")

# bounded families combine by truncated pointwise maximum
rng = random.Random(0)
others = [d_from_chain(random_chain(rng, 5, depth=2)) for _ in range(3)]
combined = sup_combine([d, *others], cap=1)
print(f"\nsup of {1 + len(others)} chain metrics is again an ultra-pseudometric "
      f"with top value {combined.levels[-1]}")
