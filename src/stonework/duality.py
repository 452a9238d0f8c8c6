"""Dualities between self-maps, ring endomorphisms, and dual-group endomorphisms.

For an n-point carrier Y with powerset ring B:

* ``phi`` sends a self-map s to the ring endomorphism "precompose with s":
  the indicator of A goes to the indicator of the preimage of A.  It
  reverses composition order and is a bijection onto all ring
  endomorphisms.
* ``delta_adjoint`` sends an additive endomorphism of B to its adjoint on
  the character group (precomposition), whose matrix is the transpose.
  It also reverses composition order.
* ``delta_eval`` embeds Y into the character group by evaluation; its
  image is exactly the multiplicative unital characters.

The composite ``hom_embed = delta_adjoint . phi`` is order-preserving and
makes evaluation equivariant: hom_embed(s) maps eval(y) to eval(s(y)).
"""

from __future__ import annotations

import numpy as np

from .boolring import GroupEndo, RingEndo, require_atoms
from .errors import DimensionMismatch
from .finmon import CHUNK_ENTRIES, SelfMapMonoid, is_self_map
from .ultra import Partition

ON_MAPS = "on_maps"
ON_RING_ENDOS = "on_ring_endos"
ON_DUAL_ENDOS = "on_dual_endos"

TAGS = (ON_MAPS, ON_RING_ENDOS, ON_DUAL_ENDOS)


def preimage_mask(s, chi: int) -> int:
    """Mask of points y with s(y) in the set coded by chi."""
    return sum(1 << y for y, sy in enumerate(s) if chi >> sy & 1)


def phi(s) -> RingEndo:
    """Ring endomorphism indicator(A) -> indicator(preimage of A).

    s takes entries as is_self_map does: no bool and no float is a point.
    """
    s = tuple(s)
    if not is_self_map(s, len(s)):
        raise ValueError(f"[{', '.join(map(str, s))}] is not a self-map of {len(s)} points")
    images = tuple(preimage_mask(s, 1 << a) for a in range(len(s)))
    return RingEndo(images)


def phi_array(values) -> np.ndarray:
    """phi on a (k, n) array of self-maps: out[s] = phi(values[s]).atom_images."""
    values = np.asarray(values)
    n = values.shape[1]
    hits = values[:, :, None] == np.arange(n)                 # hits[s, y, a]
    return (hits * (1 << np.arange(n, dtype=np.int64))[:, None]).sum(axis=1)


def phi_inverse(mu: RingEndo) -> tuple[int, ...]:
    """The unique self-map s with phi(s) = mu.

    The atom images partition the carrier, so each point sits in exactly
    one image; the owning atom is its value under s.
    """
    n = len(mu.atom_images)
    out = [-1] * n
    for a, img in enumerate(mu.atom_images):
        for y in range(n):
            if img >> y & 1:
                out[y] = a
    return tuple(out)


def delta_adjoint(sigma: GroupEndo) -> GroupEndo:
    """Adjoint on characters, f -> f . sigma; as a matrix, the transpose."""
    return sigma.transpose()


def delta_eval(y: int, n: int) -> int:
    """Evaluation character of the point y, as a dual-group mask."""
    if not 0 <= y < require_atoms(n):
        raise ValueError(f"point {y} outside the {n}-point carrier")
    return 1 << y


def hom_embed(s) -> GroupEndo:
    """The composite embedding into dual-group endomorphisms."""
    return delta_adjoint(phi(s).to_group_endo())


def preimage_masks(values, chi: int) -> np.ndarray:
    """preimage_mask(s, chi) for every row s of a (k, n) array of self-maps."""
    values = np.asarray(values, dtype=np.int64)
    return (chi >> values & 1) @ (1 << np.arange(values.shape[-1], dtype=np.int64))


def entourage_keys(values, chi: int):
    """Keys of the chi-entourage for each row of a (k, n) array of self-maps.

    Returns one key array per tag, in TAGS order: the preimage masks of
    chi; the ring elements phi(s).apply(chi), each the XOR of the atom
    images from phi_array over the bits of chi; and the (k, 2**n) parities
    of that element against every character of the dual group.  Two maps
    are related in a representation exactly when their keys for it are
    equal.
    """
    values = np.asarray(values, dtype=np.int64)
    n = require_atoms(values.shape[-1])
    if not 0 <= chi < 1 << n:
        raise ValueError("chi out of range")
    if values.size and not (values.min() >= 0 and values.max() < n):
        raise ValueError("map value outside the carrier")
    bits = [a for a in range(n) if chi >> a & 1]
    images = np.bitwise_xor.reduce(phi_array(values)[:, bits], axis=1)
    parities = np.bitwise_count(images[:, None] & np.arange(1 << n)) & 1
    return preimage_masks(values, chi), images, parities


def entourage_transport(chi: int, s1, s2):
    """Membership of map pairs in the three representations of the chi-entourage.

    s1 and s2 are (m, n) arrays of self-maps that broadcast against each
    other; the result is a (3, m) boolean array whose row t tells which
    pairs TAGS[t] relates.  Two single maps are the one-row case and give
    a tuple of three bools.  The rows are always equal; the third compares
    parities over every character rather than using the separation
    shortcut, so the agreement is informative.
    """
    s1, s2 = np.asarray(s1, dtype=np.int64), np.asarray(s2, dtype=np.int64)
    if s1.shape[-1:] != s2.shape[-1:]:
        raise DimensionMismatch("self-maps on different carriers")
    (pre1, img1, par1), (pre2, img2, par2) = (
        entourage_keys(np.atleast_2d(s), chi) for s in (s1, s2))
    memberships = np.stack([pre1 == pre2, img1 == img2, (par1 == par2).all(axis=1)])
    return tuple(memberships[:, 0].tolist()) if s1.ndim == s2.ndim == 1 else memberships


def entourage_partition(maps: SelfMapMonoid, chi: int, tag: str) -> Partition:
    """The chi-entourage as a partition of a transformation monoid.

    Keys by the preimage/image value the relation compares, so the result
    is an equivalence relation by construction.  For the dual tag the
    character quantification is evaluated literally, as each map's parity
    vector over every character, and the pairs it relates must be exactly
    the pairs sharing a class.
    """
    if tag not in TAGS:
        raise ValueError(f"unknown representation tag {tag!r}")
    preimages, images, parities = entourage_keys(maps.values, chi)
    part = Partition.from_class_ids((preimages if tag == ON_MAPS else images).tolist())
    if tag == ON_DUAL_ENDOS:
        ids = np.asarray(part.class_id)
        step = max(1, CHUNK_ENTRIES // parities.size)
        for start in range(0, len(ids), step):
            block = parities[start:start + step]
            related = (block[:, None, :] == parities[None, :, :]).all(axis=2)
            same_class = ids[start:start + step, None] == ids[None, :]
            if not np.array_equal(related, same_class):
                raise AssertionError("character relation disagrees with classes")
    return part
