import inspect
import json
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from test_cli import run_cli
from test_duality import oracle_transport, phi_at

from stonework import duality, navector, suite, ultra, unif
from stonework.boolring import additive_monoid, enumerate_group_endos, transpose_masks
from stonework.duality import phi_array, preimage_mask
from stonework.errors import NoWitness
from stonework.finmon import MonoidAction, SelfMapMonoid, full_selfmap_monoid
from stonework.generators import enumerate_actions, enumerate_small_monoids, random_ultrametric
from stonework.suite import SuiteConfig, check_delta, check_phi, run_check, run_suite

SMALL = SuiteConfig(bound_points=3, bound_atoms=3)
DATA = Path(__file__).parent / "data"


BOUNDS_MAX = ["--bound-points", "4", "--bound-atoms", "3", "--bound-k", "7"]


@pytest.mark.parametrize("recorded,argv", [
    pytest.param("verify-seed0", ["--seed", "0"], id="verify-seed0"),
    # the largest accepted bounds: the n=4 self-map and ring-endomorphism tables
    pytest.param("verify-seed0-max", [*BOUNDS_MAX, "--seed", "0"], id="verify-seed0-max"),
    pytest.param("verify-seed3-max", [*BOUNDS_MAX, "--seed", "3"], id="verify-seed3-max"),
    # other draws of the random sweeps
    pytest.param("verify-seed7", ["--seed", "7"], id="verify-seed7"),
    pytest.param("verify-seed1001", ["--seed", "1001"], id="verify-seed1001"),
    pytest.param("verify-seed2003", ["--seed", "2003"], id="verify-seed2003"),
    # every option at its default: seed 0 at the default bounds
    pytest.param("verify-seed0", [], id="verify-self-test"),
])
def test_verdicts_match_the_recorded_reports(recorded, argv):
    # each record is a `verify --all --self-test --out json` report, without
    # elapsed_ms; the negative control fails, so the command exits 1
    proc = run_cli(["verify", "--all", "--self-test", "--out", "json", *argv])
    assert proc.returncode == 1 and proc.stderr == ""
    got = [{k: v for k, v in r.items() if k != "elapsed_ms"} for r in json.loads(proc.stdout)]
    assert got == json.loads((DATA / f"{recorded}.json").read_text())


def fresh_kantorovich_spaces(seed):
    rng = random.Random(f"{seed}:kantorovich-spaces")
    return [navector.free_space(d) for n in range(1, 5)
            for d in [ultra.UltraPseudometric.discrete(n)]
            + [random_ultrametric(rng, n) for _ in range(3)]]


def test_the_kantorovich_checks_share_one_draw_per_seed():
    spaces = suite._kantorovich_spaces(7)
    assert list(spaces) == fresh_kantorovich_spaces(7) and len(spaces) == 16
    assert suite._kantorovich_spaces(7) is spaces
    other = suite._kantorovich_spaces(8)
    assert list(other) == fresh_kantorovich_spaces(8) and other != spaces
    assert suite._kantorovich_spaces(7) == spaces


def test_run_suite_runs_only_the_given_checks():
    checks = [(name, fn) for name, fn in suite.CHECKS if name == "phi-anti-isomorphism"]
    reports = run_suite(SMALL, checks)
    assert [r.check for r in reports] == ["phi-anti-isomorphism"]
    assert reports[0].passed


@pytest.mark.parametrize("error,witness", [
    (ValueError("bad table"), {"error": "ValueError: bad table"}),
    (NoWitness("no witness"), {"error": "no witness"}),
])
def test_a_check_that_raises_after_its_params_reports_nothing_else(error, witness):
    def crashing(cfg):
        yield {"points": [1]}
        yield 5, None
        raise error

    [report] = run_suite(SMALL, [("crashing", crashing)])
    assert (report.params, report.instances, report.outcome) == ({}, 0, "fail")
    assert report.witness == witness


def test_run_check_is_not_resumed_after_the_first_witness():
    def failing(cfg):
        yield {"points": [1]}
        yield 2, None
        yield 3, {"failure": "first"}
        raise AssertionError("resumed after its first witness")

    assert run_check(failing, SMALL) == ({"points": [1]}, 5, {"failure": "first"})
    [report] = run_suite(SMALL, [("failing", failing)])
    assert (report.params, report.instances, report.witness) == (
        {"points": [1]}, 5, {"failure": "first"})


def test_every_check_is_a_generator():
    for _, fn in [*suite.CHECKS, suite.CONTROL]:
        assert inspect.isgeneratorfunction(fn), fn.__name__


@pytest.mark.parametrize("atoms,failure,pair", [
    (3, "delta(sigma.tau) != delta(tau).delta(sigma)", ("sigma", "tau")),
    (1, "anti-law fails on the phi image", ("s", "t")),    # 1x1 matrices pass
])
def test_delta_fails_when_transpose_is_the_identity(monkeypatch, atoms, failure, pair):
    monkeypatch.setattr(suite, "transpose_masks", lambda masks, n: masks)
    _, _, witness = run_check(check_delta, SuiteConfig(bound_points=3, bound_atoms=atoms))
    assert witness["failure"] == failure
    assert witness["n"] == 2 and set(pair) < set(witness)


def test_the_delta_law_holds_no_intp_copy_of_the_table():
    endos = enumerate_group_endos(3)
    matrices, order = additive_monoid(transpose_masks([e.rows for e in endos], 3), 3)
    table = matrices.composites()           # 512 x 512 uint16
    matrices.lookup(matrices.values[:1])
    tracemalloc.start()
    try:
        assert suite._delta_law(matrices, matrices, order) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the composite indices image[table] as intp would alone be four tables
    assert peak < 4 * table.nbytes


def test_phi_fails_when_the_array_form_is_wrong(monkeypatch):
    # a bijection onto the ring endomorphisms that is not phi
    monkeypatch.setattr(suite, "phi_array", lambda values: phi_array(values[::-1]))
    _, _, witness = run_check(check_phi, SMALL)
    assert witness["failure"] == "phi(s.t) != phi(t).phi(s)"
    assert witness["n"] == 2


def test_phi_fails_when_the_array_form_is_not_onto(monkeypatch):
    def constant(values):
        return phi_array(values[:1].repeat(len(values), axis=0))

    monkeypatch.setattr(suite, "phi_array", constant)
    _, _, witness = run_check(check_phi, SMALL)
    assert witness == {"n": 2, "failure": "phi is not a bijection"}


def test_phi_fails_when_an_endomorphism_is_missing(monkeypatch):
    # drop the last endomorphism where there are two or more: at 2 atoms it
    # has atom images (3, 0), the composite (0, 3) after (2, 1)
    real = suite.enumerate_ring_endos
    monkeypatch.setattr(suite, "enumerate_ring_endos", lambda n: real(n)[:-1] or real(n))
    _, instances, witness = run_check(check_phi, SMALL)
    assert witness == {"n": 2, "failure": "ring-endomorphism composition left the enumerated set"}
    assert instances == 1


@pytest.mark.parametrize("keep,instances,failure", [
    # the swap (2, 1) after itself is the missing identity (1, 2)
    pytest.param(lambda e: e.atom_images != (1, 2), 1,
                 "ring-endomorphism composition left the enumerated set", id="identity-dropped"),
    # the maps with an empty atom image are closed without the identity
    pytest.param(lambda e: 0 in e.atom_images, 17, "phi is not a bijection", id="closed-without-it"),
])
def test_phi_fails_when_the_identity_endomorphism_is_missing(monkeypatch, keep, instances, failure):
    real = suite.enumerate_ring_endos
    monkeypatch.setattr(suite, "enumerate_ring_endos", lambda n: real(n) if n != 2
                        else [e for e in real(n) if keep(e)])
    assert run_check(check_phi, SMALL)[1:] == (instances, {"n": 2, "failure": failure})


def old_transport_scan(bound, memberships):
    """The check as a per-pair scan over (chi, s1, s2), one membership triple at a time."""
    instances = 0
    for n in range(1, bound + 1):
        maps = full_selfmap_monoid(n).elements
        for chi in range(1 << n):
            for s1 in maps:
                for s2 in maps:
                    instances += 1
                    triple = memberships(chi, s1, s2)
                    if len(set(triple)) != 1:
                        return instances, {"n": n, "chi": chi, "s1": list(s1), "s2": list(s2),
                                           "memberships": list(triple)}
    return instances, None


def shifted(s):
    """The map followed by the cyclic shift of the points."""
    return tuple((v + 1) % len(s) for v in s)


def test_entourage_transport_fails_like_the_old_loop_on_a_wrong_phi(monkeypatch):
    # phi of the shifted map: a bijection onto the ring endomorphisms that is not phi
    monkeypatch.setattr(duality, "phi_array", lambda values: phi_array((values + 1) % values.shape[1]))
    _, instances, witness = run_check(suite.check_entourage_transport, SMALL)
    assert witness is not None and len(set(witness["memberships"])) == 2
    assert (instances, witness) == old_transport_scan(3, lambda chi, s1, s2: oracle_transport(
        chi, s1, s2, image=lambda s, chi: phi_at(shifted(s), chi)))


def without_last_point(mask, n):
    return mask & ~(1 << (n - 1))


def test_entourage_transport_fails_like_the_old_loop_on_a_short_preimage(monkeypatch):
    real = duality.preimage_masks
    monkeypatch.setattr(duality, "preimage_masks", lambda values, chi: without_last_point(
        real(values, chi), values.shape[-1]))
    _, instances, witness = run_check(suite.check_entourage_transport, SMALL)
    assert witness is not None and len(set(witness["memberships"])) == 2
    assert (instances, witness) == old_transport_scan(3, lambda chi, s1, s2: oracle_transport(
        chi, s1, s2, preimage=lambda s, chi: without_last_point(preimage_mask(s, chi), len(s))))


@pytest.mark.parametrize("side", ["left", "right"])
def test_ball_checks_test_the_precondition_once_per_distinct_instance(monkeypatch, side):
    calls = []
    real = suite.nonexpansive_counterexample

    def counting(m, d, s):
        calls.append(s)
        return real(m, d, s)

    monkeypatch.setattr(suite, "nonexpansive_counterexample", counting)
    monkeypatch.setattr(suite, "BALL_INSTANCE_COUNT", 20)
    name = "ball-submonoids" if side == "right" else "ball-left-congruences"
    drawn = recording_draws(monkeypatch, name)
    _, instances, witness = run_check(dict(suite.CHECKS)[name], SuiteConfig())
    assert witness is None and instances > 20
    assert len(drawn()) == 20 and calls == [side] * len(set(drawn()))


TWO_LEVEL = ultra.UltraPseudometric.from_rows([[0, "1/2", 1], ["1/2", 0, 1], [1, 1, 0]])

# the sweeps that check each distinct instance once: the suite's names
# that draw its parts, and the call each distinct instance makes once
SWEEPS = {
    "chain-metrization": (["random_chain"], "d_from_chain"),
    "theta-closure": (["random_ultrametric"], "enumerate_theta"),
    "theta-pointwise-entourages": (["random_ultrametric"], "enumerate_theta"),
    "ball-submonoids": (["random_transformation_monoid", "random_one_sided_metric"],
                        "nonexpansive_counterexample"),
    "ball-left-congruences": (["random_transformation_monoid", "random_one_sided_metric"],
                              "nonexpansive_counterexample"),
}


def recording_draws(monkeypatch, name):
    """Record what the sweep draws; returns a function that gives its
    instances so far, in draw order, as values equal where the laws read
    equal data."""
    out = []
    for attr in SWEEPS[name][0]:
        real = getattr(suite, attr)
        monkeypatch.setattr(suite, attr, lambda *a, real=real, **k: out.append(real(*a, **k)) or out[-1])

    def instances():
        if name.startswith("ball-"):     # the monoid of its (table, maps) and the metric
            return [(m, d) for (m, _), d in zip(out[::2], out[1::2])]
        if name == "theta-pointwise-entourages":
            return [ultra.UltraPseudometric.discrete(3), TWO_LEVEL, *out]
        return list(out)
    return instances


def recorded_instances(seed):
    return {r["check"]: r["instances"]
            for r in json.loads((DATA / f"verify-seed{seed}.json").read_text())}


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", list(SWEEPS))
def test_sweeps_run_their_laws_once_per_distinct_instance(monkeypatch, name, seed):
    calls = []
    law = SWEEPS[name][1]
    real = getattr(suite, law)
    monkeypatch.setattr(suite, law, lambda first, *rest: calls.append(
        (first, rest[0]) if rest else first) or real(first, *rest))
    drawn = recording_draws(monkeypatch, name)
    _, instances, witness = run_check(dict(suite.CHECKS)[name], SuiteConfig(seed=seed))
    assert witness is None and instances == recorded_instances(seed)[name]
    # first occurrences in draw order, and at this seed some instance repeats
    assert calls == list(dict.fromkeys(drawn())) and len(calls) < len(drawn())


def latest_repeated_instance(name, seed):
    """Of the instances the sweep draws more than once, the one drawn
    first last: every earlier repeat is counted before it fails."""
    with pytest.MonkeyPatch.context() as patch:
        drawn = recording_draws(patch, name)
        run_check(dict(suite.CHECKS)[name], SuiteConfig(seed=seed))
        instances = drawn()
    repeated = [x for i, x in enumerate(instances) if x in instances[i + 1:]]
    return max(repeated, key=instances.index)


def fault_on(monkeypatch, name, target):
    """Break the laws of one check on the instance target only."""
    if name == "chain-metrization":
        real = suite.minimax_path_distance
        monkeypatch.setattr(suite, "minimax_path_distance",
                            lambda chain, x, y: real(chain, x, y) + (chain == target))
    elif name == "theta-closure":
        closure, bad = SelfMapMonoid.verify_closure, ultra.enumerate_theta(target)
        monkeypatch.setattr(SelfMapMonoid, "verify_closure", lambda self: closure(self) and self != bad)
    elif name == "theta-pointwise-entourages":
        real = suite.epsilon_A_relation

        def split(theta, d, points, eps):       # as in the class-split test above
            p = real(theta, d, points, eps)
            if list(points) != [0] or d != target:
                return p
            ids = list(p.class_id)
            ids[-1] = max(ids) + 1
            return ultra.Partition.from_class_ids(ids)
        monkeypatch.setattr(suite, "epsilon_A_relation", split)
    else:
        real = suite.nonexpansive_counterexample
        monkeypatch.setattr(suite, "nonexpansive_counterexample", lambda m, d, side: (
            (0, 0, 0) if (m, d) == target else real(m, d, side)))


@pytest.mark.parametrize("name", list(SWEEPS))
def test_a_fault_on_a_repeated_instance_fails_at_its_first_occurrence(monkeypatch, name):
    # the witness and instance count that checking every draw gives
    expected = json.loads((DATA / "repeated-instance-faults.json").read_text())[name]
    fault_on(monkeypatch, name, latest_repeated_instance(name, seed=0))
    _, instances, witness = run_check(dict(suite.CHECKS)[name], SuiteConfig(seed=0))
    assert {"instances": instances, "witness": witness} == expected


def test_contraction_fails_when_the_extension_is_applied_twice(monkeypatch):
    real = navector.lipschitz_linear_extend
    monkeypatch.setattr(navector, "lipschitz_linear_extend", lambda f, v: real(f, real(f, v)))
    _, _, witness = run_check(suite.check_kantorovich_contraction, SMALL)
    assert witness["failure"] == "extension is not multiplicative"
    assert {"space", "f", "g", "support"} < set(witness)


def test_contraction_fails_when_the_extension_raises_the_norm(monkeypatch):
    def full_support(f, v):
        return navector.vector(v.space, range(v.zero_point))

    monkeypatch.setattr(navector, "lipschitz_linear_extend", full_support)
    _, instances, witness = run_check(suite.check_kantorovich_contraction, SMALL)
    assert witness["failure"] == "extension increased the norm"
    assert witness["map"] == [0, 0, 0] and witness["support"] == [] and instances == 1


def test_oracle_agreement_fails_when_the_norm_is_off(monkeypatch):
    real = navector.kantorovich_norm
    monkeypatch.setattr(navector, "kantorovich_norm", lambda v: real(v) + 1)
    _, instances, witness = run_check(suite.check_kantorovich_oracle, SMALL)
    assert instances == 1
    assert witness["pairing_norm"] == "1" and witness["auxiliary_norm"] == "0"


def test_saturation_fails_on_a_wrong_pullback(monkeypatch):
    # the pullbacks of the elements in reverse order: the same set per
    # partition, so saturate is unchanged, but the composition law breaks
    pullback = unif.PartitionLattice.pullback
    monkeypatch.setattr(unif.PartitionLattice, "pullback",
                        lambda self, act: pullback(self, act[::-1]))
    _, instances, witness = run_check(suite.check_saturation, SMALL)
    assert set(witness) == {"monoid", "action", "partition", "pair"}
    assert 0 < instances < 9950


def dropping_first_member(saturation):
    def dropped(*args):
        family = saturation(*args)
        return unif.make_family(family.carrier_size, family.members[1:])
    return dropped


def test_saturation_fails_when_a_member_is_dropped(monkeypatch):
    monkeypatch.setattr(unif.PartitionLattice, "saturation",
                        dropping_first_member(unif.PartitionLattice.saturation))
    _, _, witness = run_check(suite.check_saturation, SMALL)
    assert witness["failure"] == "saturation disagrees with the worklist oracle"
    assert set(witness) == {"monoid", "action", "generator", "failure"}


def test_saturation_fails_when_both_drop_the_generator(monkeypatch):
    # the first generator, the indiscrete partition, saturates to itself alone
    monkeypatch.setattr(unif.PartitionLattice, "saturation",
                        dropping_first_member(unif.PartitionLattice.saturation))
    monkeypatch.setattr(suite, "saturate_worklist",
                        dropping_first_member(unif.saturate_worklist))
    _, instances, witness = run_check(suite.check_saturation, SMALL)
    assert witness["failure"] == "saturation fixed point violated"
    assert witness["generator"] == {"classes": [[0, 1, 2]]}
    assert instances == 3 * 3 * 5 + 1


def dropping_first_member_on(values):
    """unif.saturate, wrong only on the action table values."""
    dropped = dropping_first_member(unif.saturate)
    return lambda action, *args: (dropped if np.array_equal(action.values, values)
                                  else unif.saturate)(action, *args)


def actions_in_scan_order():
    return [action for m in enumerate_small_monoids(3) for action in enumerate_actions(m, 3)]


def test_saturation_checks_the_last_distinct_action_table(monkeypatch):
    # a saturation wrong only on the action table whose first occurrence
    # comes last is still caught there: the check skips exact repeats only
    scan = actions_in_scan_order()
    firsts = {}
    for at, action in enumerate(scan):
        firsts.setdefault(action.values.tobytes(), at)
    last = max(firsts.values())
    monkeypatch.setattr(suite, "saturate", dropping_first_member_on(scan[last].values))
    _, instances, witness = run_check(suite.check_saturation, SMALL)
    assert witness["failure"] == "saturation disagrees with the worklist oracle"
    assert witness["action"] == scan[last].values.tolist()
    assert witness["monoid"] == scan[last].monoid.to_json()
    # every action before it: its composite law and its five generators
    assert instances == last * (3 * 3 * 5 + 5) + 3 * 3 * 5 + 1


def with_broken_action(monkeypatch):
    """Scan the 3-point actions with one table that breaks the action law
    inserted in the middle of the actions of the monoid with zero 1 and
    idempotent 2; returns the scan and the inserted table's position."""
    monoids = enumerate_small_monoids(3)
    target = next(m for m in monoids if m.values.tolist() == [[0, 1, 2], [1, 1, 1], [2, 1, 2]])
    # 2 * 2 = 2, but the swap act[2] after itself is the identity
    broken = MonoidAction(target, np.array([[0, 1, 2], [0, 0, 0], [1, 0, 2]], dtype=np.uint8))

    def actions(m, carrier):
        out = enumerate_actions(m, carrier)
        return out[:15] + [broken] + out[15:] if m == target else out
    monkeypatch.setattr(suite, "enumerate_actions", actions)
    scan = [action for m in monoids for action in actions(m, 3)]
    return scan, next(at for at, action in enumerate(scan) if action is broken)


def test_saturation_law_fails_in_the_middle_of_a_monoids_actions(monkeypatch):
    scan, at = with_broken_action(monkeypatch)
    _, instances, witness = run_check(suite.check_saturation, SMALL)
    # the first (eps, s, t) in scan order: the indiscrete partition and
    # {0, 1} {2} pull back alike along act[2] and the identity
    assert witness == {"monoid": scan[at].monoid.to_json(), "action": scan[at].values.tolist(),
                       "partition": {"classes": [[0, 2], [1]]}, "pair": [2, 2]}
    # every action before it: its composite law and its five generators
    assert instances == at * (3 * 3 * 5 + 5) + 2 * 3 * 3 + 2 * 3 + 2 + 1


def test_saturation_fails_before_a_later_law_defect_of_the_same_monoid(monkeypatch):
    scan, at = with_broken_action(monkeypatch)
    # an earlier action of the same monoid whose table first occurs there
    earlier = at - 10
    assert scan[earlier].monoid == scan[at].monoid
    assert all(not np.array_equal(a.values, scan[earlier].values) for a in scan[:earlier])
    monkeypatch.setattr(suite, "saturate", dropping_first_member_on(scan[earlier].values))
    _, instances, witness = run_check(suite.check_saturation, SMALL)
    assert witness == {"monoid": scan[earlier].monoid.to_json(),
                       "action": scan[earlier].values.tolist(),
                       "generator": {"classes": [[0, 1, 2]]},
                       "failure": "saturation disagrees with the worklist oracle"}
    assert instances == earlier * (3 * 3 * 5 + 5) + 3 * 3 * 5 + 1


def test_equal_action_tables_saturate_alike():
    # the premise of the check's repeat-table set, at every 3-point action
    by_table = {}
    for action in actions_in_scan_order():
        by_table.setdefault(action.values.tobytes(), []).append(action)
    repeats = [actions for actions in by_table.values() if len(actions) > 1]
    assert len(by_table) == 108 and repeats
    for first, *others in repeats:
        for eps in unif.partition_lattice(3).partitions:
            family = unif.saturate(first, [eps])
            expected = (family, unif.saturate_worklist(first, [eps]),
                        unif.is_saturated_under(family, first))
            for action in others:
                assert action.monoid.to_json() != first.monoid.to_json()
                assert (unif.saturate(action, [eps]), unif.saturate_worklist(action, [eps]),
                        unif.is_saturated_under(family, action)) == expected


def test_saturation_pulls_back_once_per_monoid_and_saturates_each_table_once(monkeypatch):
    calls = Counter()

    def counting(name, real):
        def counted(*args):
            calls[name] += 1
            return real(*args)
        return counted

    monkeypatch.setattr(unif.PartitionLattice, "pullback",
                        counting("pullback", unif.PartitionLattice.pullback))
    monkeypatch.setattr(suite, "saturate", counting("saturate", unif.saturate))
    monkeypatch.setattr(suite, "saturate_worklist",
                        counting("saturate_worklist", unif.saturate_worklist))
    assert run_check(suite.check_saturation, SMALL)[2] is None
    # 199 actions of the eleven 3-element monoids, 108 distinct tables, 5
    # generators: one pullback table per monoid holds all of its actions',
    # and every saturate call reads the check's own
    assert calls == {"pullback": 11, "saturate": 108 * 5, "saturate_worklist": 108 * 5}


def scaled_chain_metric(factor):
    """The chain metric with every distance times factor: 1/2 is one level too deep."""
    def metric(chain):
        d = ultra.d_from_chain(chain)
        return ultra.UltraPseudometric.from_rows([[v * factor for v in row] for row in d.dist])
    return metric


def test_chain_metrization_fails_one_level_too_deep(monkeypatch):
    monkeypatch.setattr(suite, "d_from_chain", scaled_chain_metric(Fraction(1, 2)))
    _, instances, witness = run_check(suite.check_chain_metrization, SMALL)
    assert set(witness) == {"chain", "pair", "closed_form", "path_infimum"}
    assert 2 * Fraction(witness["closed_form"]) == Fraction(witness["path_infimum"])
    assert instances == 1


def test_chain_metrization_sandwich_fails_one_level_too_shallow(monkeypatch):
    # the path oracle agrees with the wrong metric, so only the sandwich can fail
    shallow = scaled_chain_metric(2)
    monkeypatch.setattr(suite, "d_from_chain", shallow)
    monkeypatch.setattr(suite, "minimax_path_distance", lambda chain, x, y: shallow(chain).d(x, y))
    _, instances, witness = run_check(suite.check_chain_metrization, SMALL)
    assert witness == {"chain": FIRST_SANDWICH_CHAIN, "level": 1, "pair": [0, 2],
                       "failure": "finer level escapes the open ball"}
    assert instances == 3


# the first chain of the default seed whose sandwich a scaled metric breaks
FIRST_SANDWICH_CHAIN = {"carrier_size": 3, "chain": [
    {"classes": [[0, 2], [1]]}, {"classes": [[0, 2], [1]]}, {"classes": [[0], [1], [2]]}]}


def test_chain_metrization_sandwich_fails_two_levels_too_deep(monkeypatch):
    # a quarter of the chain metric puts the ball at level i at level i - 1,
    # coarser than level i where the levels differ
    deep = scaled_chain_metric(Fraction(1, 4))
    monkeypatch.setattr(suite, "d_from_chain", deep)
    monkeypatch.setattr(suite, "minimax_path_distance", lambda chain, x, y: deep(chain).d(x, y))
    _, instances, witness = run_check(suite.check_chain_metrization, SMALL)
    assert witness == {"chain": FIRST_SANDWICH_CHAIN, "level": 1, "pair": [0, 1],
                       "failure": "open ball escapes the coarser level"}
    assert instances == 3


def test_theta_entourages_fail_at_the_first_pair_when_a_class_splits(monkeypatch):
    # point 0's relation loses the last map of its class on the non-discrete
    # metrics: the first right translation that moves 0 elsewhere and pulls
    # that map apart from its old class fails, at the map i reached first
    real = suite.epsilon_A_relation

    def split(theta, d, points, eps):
        p = real(theta, d, points, eps)
        if list(points) != [0] or d == ultra.UltraPseudometric.discrete(3):
            return p
        ids = list(p.class_id)
        ids[-1] = max(ids) + 1
        return ultra.Partition.from_class_ids(ids)

    monkeypatch.setattr(suite, "epsilon_A_relation", split)
    _, instances, witness = run_check(suite.check_theta_entourages, SuiteConfig())
    assert instances == 10824
    assert witness == {
        "metric": {"dist": [["0", "1/2", "1"], ["1/2", "0", "1"], ["1", "1", "0"]]},
        "points": [0], "eps": "1/2", "s0": [1, 0, 2],
        "failure": "right translation does not respect the entourage",
    }


def test_covering_combinators_fail_when_the_star_is_too_fine(monkeypatch):
    # the all-singletons "star" of every cover with six blocks
    real = suite.cover_star

    def singletons(p):
        if len(p.sorted_blocks()) < 6:
            return real(p)
        return unif.Cover.from_blocks([[x] for x in range(p.carrier_size)])

    monkeypatch.setattr(suite, "cover_star", singletons)
    _, instances, witness = run_check(suite.check_covering_combinators, SuiteConfig())
    assert instances == 27
    assert witness == {
        "cover": {"blocks": [[0, 1, 2, 3], [0, 1, 2, 3, 4], [0, 2, 3, 4], [1, 2], [2, 3, 4], [3]]},
        "failure": "P does not refine P*",
    }


def test_covering_combinators_fail_when_the_wedge_is_every_subset(monkeypatch):
    def every_subset(p, q):
        n = p.carrier_size
        return unif.Cover.from_blocks([[x for x in range(n) if m >> x & 1]
                                       for m in range(1, 1 << n)])

    monkeypatch.setattr(suite, "cover_wedge", every_subset)
    _, instances, witness = run_check(suite.check_covering_combinators, SuiteConfig())
    assert instances == 2
    assert witness == {
        "p": {"blocks": [[0, 1, 2], [0, 1, 2, 3, 4, 5]]},
        "q": {"blocks": [[0], [0, 1, 2, 3, 4, 5], [0, 1, 3], [0, 1, 3, 4, 5], [2, 4]]},
        "failure": "wedge order exceeds the product bound",
    }
