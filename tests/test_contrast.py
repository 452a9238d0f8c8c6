import random
from fractions import Fraction

import numpy as np
import pytest

from stonework import contrast, finmon, suite, ultra
from stonework.contrast import (
    ContrastInstance,
    _mul,
    agreement_neighborhood,
    build_contrast,
    contrast_report,
    obstruction_witness,
    rna_certificate,
    table_digest,
)
from stonework.errors import NoWitness, ResourceLimit
from stonework.finmon import FiniteMonoid, full_selfmap_monoid
from stonework.generators import random_one_sided_metric, random_ultrametric
from stonework.suite import SuiteConfig, run_check
from stonework.ultra import UltraPseudometric, nonexpansive_counterexample


def test_smallest_instance_table_written_out():
    inst = build_contrast(1)
    assert inst.carrier_size == 3
    # labels: 0 = tuple (0), 1 = tuple (1) = identity, 2 = segment element 0
    assert inst.monoid.identity == 1
    assert inst.monoid.table == ((0, 0, 2), (0, 1, 2), (2, 2, 2))


def test_cube_metric_first_difference_rule():
    inst = build_contrast(3)
    # tuples (1,0,1) and (1,1,1): first difference at coordinate 2
    a = 0b101
    b = 0b111
    assert inst.metric.d(a, b) == Fraction(1, 2)
    # differing already at coordinate 1
    assert inst.metric.d(0b110, 0b111) == Fraction(1, 1)
    # cube against segment and segment against segment sit at distance 1
    assert inst.metric.d(a, inst.segment_label(2)) == 1
    assert inst.metric.d(inst.segment_label(0), inst.segment_label(1)) == 1


def test_the_unchecked_metric_passes_the_checking_constructor():
    # build_contrast skips UltraPseudometric's checks, which must accept it
    for k in range(1, 8):
        inst = build_contrast(k)
        assert UltraPseudometric(inst.metric.levels, inst.metric.rank_matrix()) == inst.metric


def test_identity_and_sink_behaviour():
    inst = build_contrast(2)
    m = inst.monoid
    for x in range(inst.carrier_size):
        assert m.mul(inst.identity, x) == x
        assert m.mul(x, inst.identity) == x
    for b in range(inst.carrier_size):
        assert m.mul(inst.sink, b) == inst.sink  # segment absorbs on the left


def test_certificate_left_ok_and_right_witness():
    for k in (1, 2, 3):
        inst = build_contrast(k)
        cert = rna_certificate(inst)
        assert cert.ok
        assert nonexpansive_counterexample(inst.monoid, inst.metric, "left") is None
        if k == 1:
            # every distance is 0 or 1, so nothing can expand
            assert cert.right_witness is None
        else:
            x, y, s = cert.right_witness
            d = inst.metric
            m = inst.monoid
            assert d.d(m.mul(x, s), m.mul(y, s)) > d.d(x, y)


def test_identity_balls_are_submonoids():
    # left-sided ball closure at the identity, for every occurring radius
    from stonework.finmon import is_submonoid

    for k in (1, 2, 3):
        inst = build_contrast(k)
        assert nonexpansive_counterexample(inst.monoid, inst.metric, "left") is None
        for r in inst.metric.levels[1:]:
            ball = inst.metric.ball(inst.monoid.identity, r)
            assert is_submonoid(inst.monoid, ball)


def test_agreement_neighborhoods():
    inst = build_contrast(3)
    assert len(agreement_neighborhood(inst, 0)) == 8
    assert len(agreement_neighborhood(inst, 2)) == 2
    assert agreement_neighborhood(inst, 3) == [inst.identity]


def test_obstruction_witnesses_all_depths():
    for k in (1, 2, 4, 6):
        inst = build_contrast(k)
        for j in range(k):
            u, nat = obstruction_witness(inst, j)
            assert u in agreement_neighborhood(inst, j)
            assert inst.cube_size <= nat < inst.cube_size + k
            assert inst.monoid.mul(u, nat) == inst.sink
        with pytest.raises(NoWitness):
            obstruction_witness(inst, k)


def test_obstruction_witness_recipe_example():
    # depth 2 at truncation 4: identity with coordinate 4 cleared,
    # multiplied by the segment element reading coordinate 4
    inst = build_contrast(4)
    u, nat = obstruction_witness(inst, 2)
    assert u == inst.identity & ~(1 << 2)
    assert nat == inst.segment_label(2)
    assert inst.monoid.mul(u, nat) == inst.sink


def test_report_shape_and_digest_stability():
    report = contrast_report(2)
    assert report["carrier_size"] == 6
    assert report["certificate"]["left_nonexpansive"] is True
    assert report["certificate"]["right_counterexample"] is not None
    assert len(report["obstruction_witnesses"]) == 2
    inst = build_contrast(2)
    assert report["table_sha256"] == table_digest(inst.monoid)


def test_resource_limit_on_large_truncation():
    with pytest.raises(ResourceLimit):
        build_contrast(8)
    with pytest.raises(ValueError):
        build_contrast(0)


def _certificate_by_loops(m, d):
    """Translation laws checked pair by pair, without arrays."""
    rows, rank = m.table, d.rank_matrix()
    lipschitz = all(
        rank[row[x]][row[y]] <= rank[x][y]
        for row in rows for x in range(m.size) for y in range(m.size)
    )
    homomorphism = all(
        rows[m.table[s][t]] == tuple(rows[s][rows[t][x]] for x in range(m.size))
        for s in range(m.size) for t in range(m.size)
    )
    return lipschitz, homomorphism


def test_certificate_matches_pairwise_loops():
    for k in (1, 2, 3):
        inst = build_contrast(k)
        cert = rna_certificate(inst)
        expected = _certificate_by_loops(inst.monoid, inst.metric)
        assert (cert.translations_lipschitz, cert.embedding_homomorphism) == expected
    # a non-associative table: its translations do not multiply like it
    broken = FiniteMonoid(np.array([[0, 1, 2], [1, 2, 1], [2, 2, 2]], dtype=np.uint8), 0)
    inst = ContrastInstance(k=1, monoid=broken, metric=UltraPseudometric.discrete(3))
    cert = rna_certificate(inst)
    assert _certificate_by_loops(broken, inst.metric) == (True, False)
    assert (cert.translations_lipschitz, cert.embedding_homomorphism) == (True, False)


def test_vectorized_table_matches_the_scalar_product():
    for k in range(1, 8):
        n = build_contrast(k).carrier_size
        assert build_contrast(k).monoid.table == tuple(
            tuple(_mul(k, a, b) for b in range(n)) for a in range(n))


def _first_true_by_cube(bad):
    """The whole-array reference: the first True index in C order."""
    return tuple(np.argwhere(bad)[0].tolist()) if bad.any() else None


@pytest.mark.parametrize("step", [1, 2, 3])
def test_blocked_certificate_matches_the_whole_cube(monkeypatch, step):
    """Seeded random monoids, associative or with one product replaced, with
    random metrics or left-nonexpansive ones, against the whole-cube forms."""
    rng, nprng = random.Random(step), np.random.default_rng(step)
    for base in (full_selfmap_monoid(3).to_monoid(), build_contrast(3).monoid):
        n = base.size
        for planted in (False, True):
            table = base.values.copy()
            if planted:
                x, y = nprng.choice(np.delete(np.arange(n), base.identity), 2)
                table[x, y] = (table[x, y] + nprng.integers(1, n)) % n
            m = FiniteMonoid(table, base.identity)
            for d in (random_ultrametric(rng, n), random_one_sided_metric(rng, m, "left")):
                rank = d.rank_matrix()
                left, right = (_first_true_by_cube(
                    rank[moved[:, None, :], moved[None, :, :]] > rank[:, :, None])
                    for moved in (table.T, table))
                lipschitz = bool((rank[table[:, :, None], table[:, None, :]] <= rank).all())
                monkeypatch.setattr(finmon, "CHUNK_ENTRIES", step * n * n)
                cert = rna_certificate(ContrastInstance(k=1, monoid=m, metric=d))
                assert (cert.left_witness, cert.right_witness) == (left, right)
                assert cert.translations_lipschitz == (left is None and lipschitz)
                assert cert.embedding_homomorphism == (not (table[table, :] != table[:, table]).any())


def distinct_rows(m):
    """The whole-table reference for embedding_injective."""
    return len(np.unique(m.values, axis=0)) == m.size


def planted_monoids(step):
    """The tables of test_blocked_certificate_matches_the_whole_cube."""
    nprng = np.random.default_rng(step)
    for base in (full_selfmap_monoid(3).to_monoid(), build_contrast(3).monoid):
        for planted in (False, True):
            table = base.values.copy()
            if planted:
                x, y = nprng.choice(np.delete(np.arange(base.size), base.identity), 2)
                table[x, y] = (table[x, y] + nprng.integers(1, base.size)) % base.size
            yield FiniteMonoid(table, base.identity)


@pytest.mark.parametrize("m", [
    *(build_contrast(k).monoid for k in range(1, 8)),
    *(m for step in (1, 2, 3) for m in planted_monoids(step)),
    # a left identity that is no right identity: equal rows, then distinct ones
    FiniteMonoid([[0, 1], [0, 1]], 0),
    FiniteMonoid([[0, 1, 2], [2, 0, 1], [1, 2, 0]], 0),
])
def test_injectivity_is_the_verdict_of_the_distinct_rows(m):
    d = UltraPseudometric.discrete(m.size)
    cert = rna_certificate(ContrastInstance(k=1, monoid=m, metric=d))
    assert cert.embedding_injective == distinct_rows(m)


@pytest.mark.parametrize("k", range(1, 8))
def test_both_sides_agree_with_the_scan_of_all_triples(k):
    inst = build_contrast(k)
    m, d = inst.monoid, inst.metric
    # the carrier of 135 points at k = 7 is the first whose laws run on generators
    assert (m.generating_set is not None) == (k == 7)
    for side in ("left", "right"):
        assert nonexpansive_counterexample(m, d, side) == ultra._translation_defect(m, d, side)


def near_segments(inst):
    """The instance with segment elements 1 and 2 at distance 1/k: a cube
    element that reads coordinate 2 but not 3 sends them to distance 1."""
    rank = inst.metric.rank_matrix().copy()
    a, b = inst.segment_label(1), inst.segment_label(2)
    rank[a, b] = rank[b, a] = 1
    return ContrastInstance(k=inst.k, monoid=inst.monoid,
                            metric=UltraPseudometric(inst.metric.levels, rank))


def test_a_metric_perturbed_at_k7_reports_the_all_pairs_witness(monkeypatch):
    real = contrast.build_contrast
    monkeypatch.setattr(contrast, "build_contrast",
                        lambda k: near_segments(real(k)) if k == 7 else real(k))
    got = run_check(suite.check_contrast, SuiteConfig(bound_k=7))
    inst = contrast.build_contrast(7)
    left = ultra._translation_defect(inst.monoid, inst.metric, "left")
    assert left is not None and inst.monoid.generating_set is not None
    assert got[2] == {"k": 7, "certificate": rna_certificate(inst).to_json()}
    assert got[2]["certificate"]["left_witness"] == left
    # no generating set anywhere: the same report
    monkeypatch.setattr(finmon, "_generating_set", lambda *args: None)
    assert run_check(suite.check_contrast, SuiteConfig(bound_k=7)) == got


def test_a_law_that_holds_on_generators_of_a_table_that_is_no_monoid_is_scanned():
    inst = build_contrast(7)
    table = inst.monoid.values.copy()
    # 3 = C:1100000 now sends C:0111111 to a segment element, though it sends
    # C:0111110, at distance 1/7, into the cube
    table[3, 126] = inst.segment_label(3)
    m = FiniteMonoid(table, inst.identity)
    gens = finmon._generating_set(table, m.identity)
    assert gens is not None and 3 not in gens.tolist()
    assert ultra._translation_defect(m, inst.metric, "left", gens) is None
    assert m.generating_set is None         # associativity fails on gens
    witness = nonexpansive_counterexample(m, inst.metric, "left")
    assert witness == ultra._translation_defect(m, inst.metric, "left") == (0, 126, 3)
