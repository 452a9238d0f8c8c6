"""The monoid of 1-Lipschitz self-maps and its pointwise entourages.

Under the two-valued discrete metric every self-map is 1-Lipschitz, so
the Lipschitz monoid of an n-point discrete space is all n**n maps.  A
finer metric cuts the monoid down: maps must respect the cluster
structure.  The pointwise-closeness relations on the monoid are genuine
equivalence relations (the strong triangle inequality at work), and
identity balls of compatible metrics are submonoids.
"""

from fractions import Fraction

from stonework import (
    UltraPseudometric,
    check_left_congruence,
    enumerate_theta,
    epsilon_A_relation,
    full_selfmap_monoid,
    is_submonoid,
    nonexpansive_counterexample,
)
from stonework.generators import random_one_sided_metric, random_transformation_monoid
import random

HALF = Fraction(1, 2)

discrete = UltraPseudometric.discrete(3)
assert enumerate_theta(discrete).elements == full_selfmap_monoid(3).elements
print("discrete 3-point metric: the Lipschitz monoid is all 27 self-maps")

two_level = UltraPseudometric.from_rows(
    [[0, HALF, 1], [HALF, 0, 1], [1, 1, 0]]
)
theta = enumerate_theta(two_level)
print(f"two-level metric (0~1 close, 2 far): only {len(theta)} maps survive")
print("  survivors must keep the close pair close:",
      all(two_level.d(f[0], f[1]) <= HALF for f in theta.elements))

# pointwise entourages are equivalence relations on the monoid
part = epsilon_A_relation(theta, two_level, [0, 1], eps=Fraction(3, 4))
print(f"\ncloseness at points {{0,1}} below 3/4 partitions the monoid into "
      f"{part.num_classes()} classes")

part_all = epsilon_A_relation(theta, two_level, [0, 1, 2], eps=HALF)
print(f"closeness everywhere below 1/2 gives {part_all.num_classes()} classes")

# identity balls of translation-compatible metrics are submonoids
rng = random.Random(3)
m, _ = random_transformation_monoid(rng, 3, max_size=6)
d = random_one_sided_metric(rng, m, "right")
print(f"\na random {m.size}-element transformation monoid with a "
      f"right-nonexpansive metric:")
assert nonexpansive_counterexample(m, d, "right") is None
for r in d.levels[1:] or [Fraction(1)]:
    ok = is_submonoid(m, d.ball(m.identity, r))
    print(f"  identity ball of radius {r}: submonoid = {ok}")
    assert ok

d_left = random_one_sided_metric(rng, m, "left")
for r in d_left.levels[1:] or [Fraction(1)]:
    assert check_left_congruence(m, d_left.ball_partition(r))
print("every ball partition of a left-nonexpansive metric is a left congruence")
