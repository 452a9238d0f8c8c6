"""A one-sided test monoid: a finite cube of 0/1 tuples glued to a sink segment.

The carrier is {0,1}^k (pointwise multiplication) together with the
segment {0, ..., k-1}.  A tuple acts on a segment element m by reading
its coordinate m+1: the product is m if that coordinate is 1 and the
sink 0 otherwise; segment elements absorb everything on the right of
themselves.  The cube carries the first-difference ultrametric
1/(least differing coordinate), everything else sits at distance 1.

The instance is deliberately lopsided: the metric is nonexpansive under
left translations but not under right ones, and every agreement
neighborhood of the identity can be pushed onto the sink by a segment
element whose coordinate it leaves free.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NoWitness, ResourceLimit
from .finmon import FiniteMonoid, validate_action, validate_monoid
from .ultra import UltraPseudometric, nonexpansive_counterexample
from .limits import max_enum

MAX_K = 16


@dataclass(frozen=True)
class ContrastInstance:
    k: int
    monoid: FiniteMonoid
    metric: UltraPseudometric

    @property
    def cube_size(self) -> int:
        return 1 << self.k

    @property
    def carrier_size(self) -> int:
        return self.cube_size + self.k

    def segment_label(self, m: int) -> int:
        if not 0 <= m < self.k:
            raise ValueError(f"no segment element {m}")
        return self.cube_size + m

    @property
    def identity(self) -> int:
        return self.cube_size - 1

    @property
    def sink(self) -> int:
        return self.segment_label(0)

    def describe(self, label: int) -> str:
        if label < self.cube_size:
            bits = "".join("1" if label >> i & 1 else "0" for i in range(self.k))
            return f"C:{bits}"
        return f"N:{label - self.cube_size}"


def _mul(k: int, a: int, b: int) -> int:
    cube = 1 << k
    if a >= cube:                     # segment elements absorb on the left
        return a
    if b < cube:                      # cube times cube: pointwise product
        return a & b
    m = b - cube                      # cube acting on segment element m
    return b if a >> m & 1 else cube  # coordinate m+1 of a decides m vs sink 0


def build_contrast(k: int) -> ContrastInstance:
    """Construct the truncation-k instance: the table is validated, and the
    metric, an ultrametric by construction, is not checked again."""
    if k < 1:
        raise ValueError("truncation level must be at least 1")
    if k > MAX_K or ((1 << k) + k) ** 3 > max_enum():
        raise ResourceLimit(f"truncation level {k} above the configured bound")
    cube = 1 << k
    n = cube + k
    a, b = np.arange(n)[:, None], np.arange(n)
    # _mul on every pair: the segment element b reads coordinate b - cube + 1 of a
    reads = a >> np.maximum(b - cube, 0) & 1
    table = np.where(a >= cube, a, np.where(b < cube, a & b, np.where(reads, b, cube)))
    monoid = validate_monoid(table, cube - 1)

    # levels 0 < 1/k < ... < 1/2 < 1, so distance 1/f has rank k + 1 - f
    levels = [Fraction(0)] + [Fraction(1, f) for f in range(k, 0, -1)]
    rank = np.full((n, n), k)
    for f in range(k, 0, -1):       # the least 1-based coordinate that differs wins
        rank[:cube, :cube][(b[:cube, None] ^ b[:cube]) >> (f - 1) & 1 == 1] = k + 1 - f
    np.fill_diagonal(rank, 0)
    metric = UltraPseudometric._unchecked(levels, rank)
    return ContrastInstance(k=k, monoid=monoid, metric=metric)


@dataclass(frozen=True)
class ContrastCertificate:
    k: int
    left_nonexpansive: bool
    left_witness: tuple[int, int, int] | None
    embedding_injective: bool
    embedding_homomorphism: bool
    translations_lipschitz: bool
    right_witness: tuple[int, int, int] | None

    @property
    def ok(self) -> bool:
        return (
            self.left_nonexpansive
            and self.embedding_injective
            and self.embedding_homomorphism
            and self.translations_lipschitz
        )

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "left_nonexpansive": self.left_nonexpansive,
            "left_witness": self.left_witness,
            "embedding_injective": self.embedding_injective,
            "embedding_homomorphism": self.embedding_homomorphism,
            "translations_lipschitz": self.translations_lipschitz,
            "right_counterexample": self.right_witness,
        }


def rna_certificate(instance: ContrastInstance) -> ContrastCertificate:
    """Certify the one-sidedness of the metric.

    Checks that the metric is left nonexpansive, that the left
    translations therefore land in the 1-Lipschitz monoid of the carrier
    and form an injective multiplication-preserving representation, and
    searches for the expected right-nonexpansiveness counterexample.  A
    left translation x -> s*x is 1-Lipschitz exactly when
    d(s*x, s*y) <= d(x, y) for every pair, which is the left law itself,
    so translations_lipschitz is read off its witness.  The two laws and
    the action law read the monoid's generating set, which build_contrast
    has proven (see FiniteMonoid.generating_set).
    """
    m, d = instance.monoid, instance.metric
    left_witness = nonexpansive_counterexample(m, d, "left")
    right_witness = nonexpansive_counterexample(m, d, "right")

    table = m.values
    injective = len(np.unique(table, axis=0)) == m.size
    # the translations multiply like the monoid: the left self-action law
    try:
        validate_action(m, m.size, table)
        homomorphism = True
    except ValueError:
        homomorphism = False
    return ContrastCertificate(
        k=instance.k,
        left_nonexpansive=left_witness is None,
        left_witness=left_witness,
        embedding_injective=injective,
        embedding_homomorphism=homomorphism,
        translations_lipschitz=left_witness is None,
        right_witness=right_witness,
    )


def agreement_neighborhood(instance: ContrastInstance, j: int) -> list[int]:
    """Cube elements agreeing with the identity on coordinates 1..j."""
    if not 0 <= j <= instance.k:
        raise ValueError("agreement depth out of range")
    low = (1 << j) - 1
    return [mask for mask in range(instance.cube_size) if mask & low == low]


def obstruction_witness(instance: ContrastInstance, j: int) -> tuple[int, int]:
    """A pair (u, n) with u agreeing with the identity to depth j and u*n = sink.

    Searches the free coordinates beyond j: u is the identity with one
    free coordinate cleared and n the segment element reading it.  At
    j = k there is no free coordinate and no witness.
    """
    if not 0 <= j <= instance.k:
        raise ValueError("agreement depth out of range")
    m = instance.monoid
    for n in range(j, instance.k):
        u = instance.identity & ~(1 << n)
        nat = instance.segment_label(n)
        if m.mul(u, nat) == instance.sink:
            return u, nat
    raise NoWitness(f"no free coordinate beyond agreement depth {j}")


def table_digest(m: FiniteMonoid) -> str:
    payload = json.dumps(m.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def contrast_report(k: int) -> dict:
    """Full JSON report: digest, certificate, and all obstruction witnesses."""
    instance = build_contrast(k)
    cert = rna_certificate(instance)
    witnesses = []
    for j in range(k):
        u, nat = obstruction_witness(instance, j)
        witnesses.append(
            {
                "j": j,
                "u": u,
                "u_description": instance.describe(u),
                "n": nat,
                "n_description": instance.describe(nat),
                "product": instance.monoid.mul(u, nat),
            }
        )
    return {
        "k": k,
        "carrier_size": instance.carrier_size,
        "table_sha256": table_digest(instance.monoid),
        "certificate": cert.to_json(),
        "obstruction_witnesses": witnesses,
    }
