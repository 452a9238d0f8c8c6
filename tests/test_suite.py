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

from stonework import duality, finmon, navector, suite, ultra, unif
from stonework.boolring import (
    additive_monoid,
    additive_values,
    enumerate_group_endos,
    enumerate_ring_endos,
    transpose_masks,
)
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


@pytest.mark.parametrize("recorded,cfg", [
    ("verify-seed0", SuiteConfig()),
    ("verify-seed0-max", SuiteConfig(bound_points=4, bound_atoms=3, bound_k=7)),
])
def test_one_row_blocks_reproduce_the_recorded_reports(monkeypatch, recorded, cfg):
    # every computation done in row blocks (finmon.blocks) takes one row a
    # block, and finmon._generating_set tries a generating set on every
    # table of more than 16 law entries
    monkeypatch.setattr(finmon, "CHUNK_ENTRIES", 1)
    reports = run_suite(cfg, suite.CHECKS + [suite.CONTROL])
    got = [{k: v for k, v in r.to_json().items() if k != "elapsed_ms"} for r in reports]
    assert json.loads(json.dumps(got)) == json.loads((DATA / f"{recorded}.json").read_text())


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


def without_identity(endos):
    return [e for e in endos if e.atom_images != (1, 2)]


@pytest.mark.parametrize("pick,instances,failure", [
    # the swap (2, 1) after itself is the missing identity (1, 2)
    pytest.param(without_identity, 1,
                 "ring-endomorphism composition left the enumerated set", id="identity-dropped"),
    # the maps with an empty atom image are closed without the identity
    pytest.param(lambda endos: [e for e in endos if 0 in e.atom_images], 17,
                 "phi is not a bijection", id="closed-without-it"),
    # the first map left repeated: as many maps as endomorphisms, so only
    # the closure test tells the set from the full one
    pytest.param(lambda endos: without_identity(endos)[:1] + without_identity(endos), 1,
                 "ring-endomorphism composition left the enumerated set", id="one-repeated"),
])
def test_phi_fails_when_the_identity_endomorphism_is_missing(monkeypatch, pick, instances, failure):
    real = suite.enumerate_ring_endos
    monkeypatch.setattr(suite, "enumerate_ring_endos", lambda n: real(n) if n != 2
                        else pick(real(n)))
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


def ranks(d):
    """A metric as the sweeps' laws read it: its rank matrix, as nested tuples."""
    return tuple(map(tuple, d.rank_matrix().tolist()))


def as_read(x):
    """x as the sweeps' laws read it: a metric as its ranks, else x."""
    return ranks(x) if isinstance(x, ultra.UltraPseudometric) else x


def recording_draws(monkeypatch, name):
    """Record what the sweep draws; returns a function that gives its
    instances so far, in draw order, as values equal where the laws read
    equal data (a metric as its ranks)."""
    out = []
    for attr in SWEEPS[name][0]:
        real = getattr(suite, attr)
        monkeypatch.setattr(suite, attr, lambda *a, real=real, **k: out.append(real(*a, **k)) or out[-1])

    def instances():
        if name.startswith("ball-"):     # the monoid of its (table, maps) and the metric
            return [(m, ranks(d)) for (m, _), d in zip(out[::2], out[1::2])]
        if name == "theta-pointwise-entourages":
            return [ranks(d) for d in [ultra.UltraPseudometric.discrete(3), TWO_LEVEL, *out]]
        return list(map(as_read, out))
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
        (first, as_read(rest[0])) if rest else as_read(first)) or real(first, *rest))
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
        closure = SelfMapMonoid.verify_closure
        bad = ultra.enumerate_theta(ultra.UltraPseudometric(range(max(map(max, target)) + 1), target))
        monkeypatch.setattr(SelfMapMonoid, "verify_closure", lambda self: closure(self) and self != bad)
    elif name == "theta-pointwise-entourages":
        real = suite.epsilon_A_relation

        def split(theta, d, points, eps):       # as in the class-split test above
            p = real(theta, d, points, eps)
            if list(points) != [0] or ranks(d) != target:
                return p
            ids = list(p.class_id)
            ids[-1] = max(ids) + 1
            return ultra.Partition.from_class_ids(ids)
        monkeypatch.setattr(suite, "epsilon_A_relation", split)
    else:
        real = suite.nonexpansive_counterexample
        monkeypatch.setattr(suite, "nonexpansive_counterexample", lambda m, d, side: (
            (0, 0, 0) if (m, ranks(d)) == target else real(m, d, side)))


@pytest.mark.parametrize("name", list(SWEEPS))
def test_a_fault_on_a_repeated_instance_fails_at_its_first_occurrence(monkeypatch, name):
    # the witness and instance count that checking every draw gives
    expected = json.loads((DATA / "repeated-instance-faults.json").read_text())[name]
    fault_on(monkeypatch, name, latest_repeated_instance(name, seed=0))
    _, instances, witness = run_check(dict(suite.CHECKS)[name], SuiteConfig(seed=0))
    assert {"instances": instances, "witness": witness} == expected


def run_on(monkeypatch, name, m, d):
    """The named metric sweep with every draw replaced by the metric d
    (and, for a ball check, the monoid m): (instances, passed)."""
    with monkeypatch.context() as patch:
        patch.setattr(suite, "random_ultrametric", lambda rng, n: d)
        patch.setattr(suite, "random_transformation_monoid", lambda rng, n, max_size: (m, None))
        patch.setattr(suite, "random_one_sided_metric", lambda rng, m, side: d)
        _, instances, witness = run_check(dict(suite.CHECKS)[name], SuiteConfig())
    return instances, witness is None


def relevelled(d, rng):
    """d at other distances: the same ranks, positive levels in thirds
    that are no integers, so none of them is a level of d."""
    levels, c = [Fraction(0)], 0
    for _ in d.levels[1:]:
        c += 1 + rng.randrange(3)
        levels.append(Fraction(3 * c + 1, 3))
    return ultra.UltraPseudometric(levels, d.rank_matrix())


@pytest.mark.parametrize("name", [n for n in SWEEPS if n != "chain-metrization"])
def test_metrics_of_equal_ranks_check_alike(monkeypatch, name):
    # the premise of the metric sweeps' rank key: a metric and a copy of
    # it at other levels get one count and verdict from every law; with
    # the precondition waived, an arbitrary metric fails a ball law at
    # some radius, and its copy fails it at the same one
    rng = random.Random(name)
    outcomes = set()
    for _ in range(12):
        m, _ = suite.random_transformation_monoid(rng, 2 + rng.randrange(3), max_size=6)
        n = 3 if name == "theta-pointwise-entourages" else m.size
        metrics = [random_ultrametric(rng, n)]
        if name.startswith("ball-"):
            side = "right" if name == "ball-submonoids" else "left"
            metrics.append(suite.random_one_sided_metric(rng, m, side))
        for d in metrics:
            copy = relevelled(d, rng)
            assert set(copy.levels) & set(d.levels) == {0}
            outcomes.add(run_on(monkeypatch, name, m, d))
            assert run_on(monkeypatch, name, m, copy) == run_on(monkeypatch, name, m, d)
            if name.startswith("ball-"):
                with monkeypatch.context() as patch:
                    patch.setattr(suite, "nonexpansive_counterexample", lambda m, d, side: None)
                    outcomes.add(run_on(patch, name, m, d))
                    assert run_on(patch, name, m, copy) == run_on(patch, name, m, d)
    # the sweeps met more than one count, and the ball checks failures too
    assert len(outcomes) > 1 and any(not ok for _, ok in outcomes) == name.startswith("ball-")


BALL_LAWS = {
    "ball-submonoids": ("right", lambda m, d, r: finmon.is_submonoid(m, d.ball(m.identity, r))),
    "ball-left-congruences": ("left", lambda m, d, r: ultra.check_left_congruence(
        m, d.ball_partition(r))),
}


def loop_ball_check(name):
    """The radius-by-radius scan that the ball checks replaced, on every
    draw: one library call per radius."""
    side, law = BALL_LAWS[name]

    def check(cfg):
        rng = suite._rng(cfg, name)
        yield {"instances": suite.BALL_INSTANCE_COUNT, "max_monoid": 6}
        for _ in range(suite.BALL_INSTANCE_COUNT):
            m, _ = suite.random_transformation_monoid(rng, 2 + suite.randbelow(rng, 3), max_size=6)
            d = suite.random_one_sided_metric(rng, m, side)
            if suite.nonexpansive_counterexample(m, d, side) is not None:
                yield 0, {"monoid": m.to_json(), "metric": d.to_json(),
                          "failure": f"generator produced a non-{side}-nonexpansive metric"}
            positive = d.levels[1:]
            radii = [positive[0] / 2, *positive, positive[-1] * 2] if positive else [Fraction(1)]
            for count, r in enumerate(radii, 1):
                if not law(m, d, r):
                    yield count, {"monoid": m.to_json(), "metric": d.to_json(), "radius": str(r)}
            yield len(radii), None
    return check


def any_metric_on_large_monoids(monkeypatch):
    """Waive the precondition and give every monoid of four or more
    elements an arbitrary metric, which breaks the ball laws at some
    radius between the least and the greatest."""
    real = suite.random_one_sided_metric
    monkeypatch.setattr(suite, "nonexpansive_counterexample", lambda m, d, side: None)
    monkeypatch.setattr(suite, "random_one_sided_metric", lambda rng, m, side: (
        random_ultrametric(rng, m.size) if m.size >= 4 else real(rng, m, side)))


# (instances, witness radius) at seeds 0 and 7, as the scan reported them
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name,fault,pinned", [
    ("ball-submonoids", None, {0: (312, None), 7: (294, None)}),
    ("ball-submonoids", any_metric_on_large_monoids, {0: (10, "1/4"), 7: (63, "1")}),
    ("ball-left-congruences", None, {0: (300, None), 7: (306, None)}),
    ("ball-left-congruences", any_metric_on_large_monoids, {0: (3, "1/2"), 7: (3, "1")}),
])
def test_the_ball_arrays_report_what_the_scan_reported(monkeypatch, seed, name, fault, pinned):
    if fault is not None:
        fault(monkeypatch)
    cfg = SuiteConfig(seed=seed)
    got = run_check(dict(suite.CHECKS)[name], cfg)
    assert got == run_check(loop_ball_check(name), cfg)
    assert (got[1], (got[2] or {}).get("radius")) == pinned[seed]


def test_contraction_fails_when_the_extension_is_applied_twice(monkeypatch):
    real = navector.lipschitz_linear_extend
    monkeypatch.setattr(navector, "lipschitz_linear_extend", lambda f, v: real(f, real(f, v)))
    _, instances, witness = run_check(suite.check_kantorovich_contraction, SMALL)
    # the first failing (f, g, support) in the scan order f, then g, then
    # support, on the discrete 3-point space
    assert witness == {
        "space": {"dist": [["0", "1", "1", "1"], ["1", "0", "1", "1"],
                           ["1", "1", "0", "1"], ["1", "1", "1", "0"]]},
        "f": [0, 0, 1], "g": [0, 2, 0], "support": [1],
        "failure": "extension is not multiplicative",
    }
    assert instances == 483


def test_contraction_fails_on_a_theta_not_closed_under_composition(monkeypatch):
    # permutations are 1-Lipschitz on the discrete space, but this cycle's
    # square is missing
    monkeypatch.setattr(suite, "enumerate_theta",
                        lambda d: SelfMapMonoid([[0, 1, 2], [1, 2, 0]]))
    with pytest.raises(KeyError):
        run_check(suite.check_kantorovich_contraction, SMALL)


def test_contraction_fails_when_the_extension_raises_the_norm(monkeypatch):
    def full_support(f, v):
        return navector.vector(v.space, range(v.zero_point))

    monkeypatch.setattr(navector, "lipschitz_linear_extend", full_support)
    _, instances, witness = run_check(suite.check_kantorovich_contraction, SMALL)
    assert witness["failure"] == "extension increased the norm"
    assert witness["map"] == [0, 0, 0] and witness["support"] == [] and instances == 1


def test_ultranorm_fails_when_one_norm_is_too_small(monkeypatch):
    # with the norm of support {0, 1} read as 0, the max law fails first
    # where {0, 1} and a vector of smaller norm sum to one of larger norm
    real = navector.kantorovich_norm
    monkeypatch.setattr(navector, "kantorovich_norm",
                        lambda v: Fraction(0) if v.support == {0, 1} else real(v))
    _, instances, witness = run_check(suite.check_kantorovich_ultranorm, SMALL)
    assert witness == {
        "space": {"dist": [["0", "1", "1/8", "1", "1"], ["1", "0", "1", "1/8", "1"],
                           ["1/8", "1", "0", "1", "1"], ["1", "1/8", "1", "0", "1"],
                           ["1", "1", "1", "1", "0"]]},
        "u": [0, 1], "v": [0, 2],
        "failure": "ultra-norm max law",
    }
    assert instances == 646


def loop_ultranorm(cfg):
    """The pair-by-pair scan that check_kantorovich_ultranorm replaced."""
    yield {"max_points": 4}
    for space in suite._kantorovich_spaces(cfg.seed):
        vectors = {s: navector.vector(space, s) for s in suite._subsets(space.carrier_size - 1)}
        norms = {v.support: navector.kantorovich_norm(v) for v in vectors.values()}
        for s1, v1 in vectors.items():
            for count, (s2, v2) in enumerate(vectors.items(), 1):
                if norms[v1.add(v2).support] > max(norms[v1.support], norms[v2.support]):
                    yield count, {"space": space.to_json(), "u": list(s1), "v": list(s2),
                                  "failure": "ultra-norm max law"}
            yield len(vectors), None


def loop_contraction(cfg):
    """The map-by-map and pair-by-pair scan that
    check_kantorovich_contraction replaced."""
    yield {"points": 3}
    for space in suite._kantorovich_spaces(cfg.seed):
        if space.carrier_size != 4:
            continue
        theta = suite.enumerate_theta(ultra.UltraPseudometric.from_rows(
            [[space.d(x, y) for y in range(3)] for x in range(3)]))
        supports = suite._subsets(3)
        vectors = {s: navector.vector(space, s) for s in supports}
        norms = {s: navector.kantorovich_norm(v) for s, v in vectors.items()}
        pushed = [{s: tuple(sorted(navector.lipschitz_linear_extend(f, v).support))
                   for s, v in vectors.items()} for f in theta.elements]
        for f, images in zip(theta.elements, pushed):
            for count, s in enumerate(supports, 1):
                if norms[images[s]] > norms[s]:
                    yield count, {"space": space.to_json(), "map": list(f), "support": list(s),
                                  "failure": "extension increased the norm"}
            yield len(supports), None
        for i, f in enumerate(theta.elements):
            for j, g in enumerate(theta.elements):
                direct = pushed[theta.compose(i, j)]
                for count, s in enumerate(supports, 1):
                    if direct[s] != pushed[i][pushed[j][s]]:
                        yield count, {"space": space.to_json(), "f": list(f), "g": list(g),
                                      "support": list(s),
                                      "failure": "extension is not multiplicative"}
                yield len(supports), None


def norm_read_as(value, support, carrier=None):
    real = navector.kantorovich_norm

    def norm(v):
        hit = v.support == support and carrier in (None, v.space.carrier_size)
        return value(real(v)) if hit else real(v)
    return norm


def extension_sending(support, f, image, source=None):
    real = navector.lipschitz_linear_extend

    def extend(g, v):
        out = real(g, v)
        if out.support == support and list(g) == f and source in (None, v.support):
            return navector.vector(v.space, image)
        return out
    return extend


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("fault", [
    None,
    *(norm_read_as(lambda r: Fraction(0), s) for s in [{0}, {1}, {0, 1}, {2}, {1, 2}]),
    norm_read_as(lambda r: r / 2, {1, 2}, carrier=5),
    norm_read_as(lambda r: r + 1, {0, 2}, carrier=4),
])
def test_the_ultranorm_arrays_report_what_the_scan_reported(monkeypatch, seed, fault):
    if fault is not None:
        monkeypatch.setattr(navector, "kantorovich_norm", fault)
    cfg = SuiteConfig(seed=seed)
    assert run_check(suite.check_kantorovich_ultranorm, cfg) == run_check(loop_ultranorm, cfg)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("fault", [
    None,
    extension_sending({1}, [1, 1, 2], [0, 2]),
    extension_sending({2}, [2, 2, 2], [0], source={0, 1, 2}),
    extension_sending({0}, [0, 0, 0], [0, 1, 2]),
    extension_sending(set(), [1, 2, 2], [1]),
])
def test_the_contraction_arrays_report_what_the_scan_reported(monkeypatch, seed, fault):
    if fault is not None:
        monkeypatch.setattr(navector, "lipschitz_linear_extend", fault)
    cfg = SuiteConfig(seed=seed)
    assert run_check(suite.check_kantorovich_contraction, cfg) == run_check(loop_contraction, cfg)


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


def test_saturation_oracles_alone_catch_a_family_both_saturations_agree_on(monkeypatch):
    # both saturations return the generator alone, so they agree; only
    # is_meet_closed and is_saturated_under can see that it is not closed
    monkeypatch.setattr(unif.PartitionLattice, "saturation",
                        lambda self, pull, gamma: unif.make_family(3, gamma))
    monkeypatch.setattr(suite, "saturate_worklist",
                        lambda action, gamma: unif.make_family(action.carrier_size, gamma))
    _, instances, witness = run_check(suite.check_saturation, SMALL)
    assert instances == 47
    assert witness == {
        "monoid": {"size": 3, "identity": 0, "table": [[0, 1, 2], [1, 0, 2], [2, 2, 2]]},
        "action": [[0, 1, 2], [0, 1, 2], [0, 0, 0]],
        "generator": {"classes": [[0, 1], [2]]},
        "failure": "saturation fixed point violated",
    }


def dropping_first_member_on(action):
    """unif.saturate, wrong only on the actions that give action's set of maps."""
    maps, dropped = frozenset(action.act), dropping_first_member(unif.saturate)
    return lambda a, *args: (dropped if frozenset(a.act) == maps
                             else unif.saturate)(a, *args)


def actions_in_scan_order():
    return [action for m in enumerate_small_monoids(3) for action in enumerate_actions(m, 3)]


def test_saturation_checks_the_last_distinct_map_set(monkeypatch):
    # a saturation wrong on every action with the map set whose first
    # action comes last is caught at that first action: the check skips
    # repeated map sets only
    scan = actions_in_scan_order()
    firsts = {}
    for at, action in enumerate(scan):
        firsts.setdefault(frozenset(action.act), at)
    last = max(firsts.values())
    monkeypatch.setattr(suite, "saturate", dropping_first_member_on(scan[last]))
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
    # an earlier action of the same monoid whose map set first occurs there
    earlier = at - 10
    assert scan[earlier].monoid == scan[at].monoid
    assert all(set(a.act) != set(scan[earlier].act) for a in scan[:earlier])
    monkeypatch.setattr(suite, "saturate", dropping_first_member_on(scan[earlier]))
    _, instances, witness = run_check(suite.check_saturation, SMALL)
    assert witness == {"monoid": scan[earlier].monoid.to_json(),
                       "action": scan[earlier].values.tolist(),
                       "generator": {"classes": [[0, 1, 2]]},
                       "failure": "saturation disagrees with the worklist oracle"}
    assert instances == earlier * (3 * 3 * 5 + 5) + 3 * 3 * 5 + 1


def test_equal_action_tables_saturate_alike():
    # the premise of the check's map-set memo, at every 3-point action:
    # actions with one set of maps, whatever rows or repeats carry them
    # (and so actions with one table), saturate alike
    scan = actions_in_scan_order()
    by_maps = {}
    for action in scan:
        by_maps.setdefault(frozenset(action.act), []).append(action)
    tables = {action.values.tobytes() for action in scan}
    assert (len(scan), len(tables), len(by_maps)) == (199, 108, 50)
    for first, *others in by_maps.values():
        for eps in unif.partition_lattice(3).partitions:
            family = unif.saturate(first, [eps])
            expected = (family, unif.saturate_worklist(first, [eps]),
                        unif.is_saturated_under(family, first))
            for action in others:
                assert (unif.saturate(action, [eps]), unif.saturate_worklist(action, [eps]),
                        unif.is_saturated_under(family, action)) == expected


def test_saturation_pulls_back_once_per_monoid_and_saturates_each_map_set_once(monkeypatch):
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
    # 199 actions of the eleven 3-element monoids, 50 distinct map sets, 5
    # generators: one pullback table per monoid holds all of its actions',
    # and every saturate call reads the check's own
    assert calls == {"pullback": 11, "saturate": 50 * 5, "saturate_worklist": 50 * 5}


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


# ---------------------------------------------------------------------------
# the duality laws on certified generating sets, against the scans of all
# pairs they stand in for

MAX = SuiteConfig(bound_points=4, bound_atoms=3, bound_k=7)


def all_pairs(monkeypatch):
    """Every law runs as its scan of all pairs or triples: no generating
    set is found for a monoid, and no anti-law is proven on generators."""
    monkeypatch.setattr(suite, "_anti_law_on_generators", lambda *args: False)
    monkeypatch.setattr(finmon, "_generating_set", lambda *args: None)


def transpose_image(source, target):
    """The index in target of each source map's transpose, as _delta_law reads it."""
    n = source.carrier_size.bit_length() - 1
    return target.lookup(additive_values(transpose_masks(source.values[:, 1 << np.arange(n)], n), n))


def anti_law_instances():
    """(name, source, target, image, gens) for every anti-law verify runs at
    the largest bounds: phi on T_1 to T_4, the transpose on the bit matrices
    of 1 to 3 atoms, and on the phi images of T_1 to T_4."""
    for n in range(1, 5):
        maps = full_selfmap_monoid(n)
        ring_maps, _ = additive_monoid([e.atom_images for e in enumerate_ring_endos(n)], n)
        image = ring_maps.lookup(additive_values(phi_array(maps.values), n))
        yield f"phi-{n}", maps, ring_maps, image, maps.generators
    for n in range(1, 4):
        endos = enumerate_group_endos(n)
        matrices, _ = additive_monoid(transpose_masks([e.rows for e in endos], n), n)
        gens = matrices.lookup(additive_values(suite._matrix_generators(n), n))
        yield f"matrices-{n}", matrices, matrices, transpose_image(matrices, matrices), gens
    for n in range(1, 5):
        maps = full_selfmap_monoid(n)
        images = phi_array(maps.values)
        image, where = additive_monoid(images, n)
        transposes, _ = additive_monoid(transpose_masks(images, n), n)
        yield (f"phi-image-{n}", image, transposes, transpose_image(image, transposes),
               where[maps.generators])


def spoiled(image, how):
    """image with its last two entries swapped, or the last set to the one before."""
    image = image.copy()
    if how == "swap":
        image[[-2, -1]] = image[[-1, -2]]
    else:
        image[-1] = image[-2]
    return image


@pytest.mark.parametrize("source,target,image,gens", [
    pytest.param(*instance, id=name) for name, *instance in anti_law_instances()])
def test_anti_laws_on_generators_agree_with_all_pairs(source, target, image, gens):
    assert source.certify(gens) is not None
    cases = [image] if len(image) < 3 else [image, spoiled(image, "swap"), spoiled(image, "repeat")]
    for i, case in enumerate(cases):
        pairs = suite._anti_law_pairs(source, target, case, np.arange(len(source)))
        assert suite._anti_law_on_generators(source, target, case, gens) == (pairs is None)
        assert (pairs is None) == (i == 0)


def wrong_phi_at_4(values):
    # a bijection onto the ring endomorphisms at 4 points that is not phi
    images = phi_array(values)
    if values.shape[1] == 4:
        images[[1, 2]] = images[[2, 1]]
    return images


@pytest.mark.parametrize("check,name,fault,n", [
    pytest.param(check_phi, "phi_array", wrong_phi_at_4, 4, id="phi-bijection-at-4"),
    pytest.param(check_delta, "transpose_masks",
                 lambda masks, n: np.asarray(masks) if n == 3 else transpose_masks(masks, n), 3,
                 id="identity-transpose-at-3-atoms"),
])
def test_faults_where_generators_run_report_the_all_pairs_witness(monkeypatch, check, name,
                                                                   fault, n):
    monkeypatch.setattr(suite, name, fault)
    tried, real = [], suite._anti_law_on_generators

    def recorded(*args):
        tried.append(real(*args))
        return tried[-1]
    monkeypatch.setattr(suite, "_anti_law_on_generators", recorded)
    got = run_check(check, MAX)
    assert got[2] is not None and got[2]["n"] == n and tried[-1] is False
    all_pairs(monkeypatch)
    tried.clear()
    assert run_check(check, MAX) == got and not tried


@pytest.mark.parametrize("check", [check_phi, check_delta, suite.check_evaluation,
                                   suite.check_contrast])
def test_the_generator_paths_report_what_all_pairs_report(monkeypatch, check):
    got = run_check(check, MAX)
    assert got[2] is None
    all_pairs(monkeypatch)
    assert run_check(check, MAX) == got


def old_evaluation_scan(bound, embed):
    """check_evaluation's equivariance law as the loop over maps and points
    it was: (instances, witness); embed(s) is a GroupEndo."""
    instances = 0
    for n in range(1, bound + 1):
        evals = [duality.delta_eval(y, n) for y in range(n)]
        instances += n
        for s in full_selfmap_monoid(n).elements:
            endo = embed(s)
            for y in range(n):
                instances += 1
                if endo.apply(evals[y]) != evals[s[y]]:
                    return instances, {"n": n, "s": list(s), "y": y,
                                       "failure": "evaluation is not equivariant"}
    return instances, None


def shifted_at(values, n):
    """The maps on n points followed by the cyclic shift; others as they are."""
    values = np.asarray(values)
    return (values + 1) % n if values.shape[-1] == n else values


@pytest.mark.parametrize("n", [None, 3, 4])
def test_evaluation_arrays_report_what_the_loop_reported(monkeypatch, n):
    if n is not None:
        monkeypatch.setattr(suite, "hom_embed", lambda s: duality.hom_embed(shifted_at(s, n)))
    _, instances, witness = run_check(suite.check_evaluation, MAX)
    assert (instances, witness) == old_evaluation_scan(4, lambda s: duality.hom_embed(
        tuple(shifted_at(s, n).tolist()) if n else s))
    assert (witness is None) == (n is None)
