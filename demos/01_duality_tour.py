"""A walk through the three faces of a finite self-map monoid.

A self-map of a finite set Y can equally be seen as a ring endomorphism
of the powerset ring of Y (pull sets back along the map), or as an
endomorphism of the character group of that ring (push characters
forward).  Both passages reverse composition order, and both are
bijections, so all three monoids have the same size n**n.
"""

from stonework import (
    BoolRing,
    delta_adjoint,
    delta_eval,
    entourage_transport,
    enumerate_ring_endos,
    full_selfmap_monoid,
    hom_embed,
    phi,
    ring_homs_to_Z2,
)
from stonework.boolring import mask_to_bits

n = 3
ring = BoolRing(n)
maps = full_selfmap_monoid(n)
endos = enumerate_ring_endos(ring)

print(f"carrier of {n} points")
print(f"  self-maps:          {len(maps)}")
print(f"  ring endomorphisms: {len(endos)}")
assert len(maps) == len(endos) == n**n

# one concrete translation: the map collapsing everything onto point 0
s = (0, 0, 0)
mu = phi(s)
print(f"\nthe constant map {s} becomes the ring endomorphism with atom images")
for a, img in enumerate(mu.atom_images):
    print(f"  atom {a} -> {mask_to_bits(img, n)}   (preimage of {{{a}}})")

# composition order reverses: phi(s.t) = phi(t).phi(s)
t = (1, 2, 0)
st = tuple(s[t[x]] for x in range(n))
assert phi(st).atom_images == phi(t).compose(phi(s)).atom_images
print(f"\nphi reverses composition: phi({s} after {t}) = phi({t}) after phi({s})")

# the adjoint on characters is the matrix transpose, and reverses order again,
# so the composite embedding preserves order
sigma = mu.to_group_endo()
print("\nadditive matrix of phi(s):     rows", [mask_to_bits(r, n) for r in sigma.rows])
print("transpose (the adjoint):       rows",
      [mask_to_bits(r, n) for r in delta_adjoint(sigma).rows])
h_st = hom_embed(st)
h_s, h_t = hom_embed(s), hom_embed(t)
assert h_st.rows == h_s.compose(h_t).rows
print("the composite embedding is covariant on the same pair")

# points of Y sit inside the character group as the ring homomorphisms
print("\nevaluation characters:", [delta_eval(y, ring) for y in range(n)])
print("ring homomorphisms:   ", ring_homs_to_Z2(ring))

# a basic entourage looks the same in all three representations
chi = 0b011
memberships = entourage_transport(chi, (0, 1, 2), (1, 0, 2))
print(f"\nentourage membership of (identity-swap pair) at chi={chi:03b}: {memberships}")
assert len(set(memberships)) == 1
