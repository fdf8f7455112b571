import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from embinvert import refine
from embinvert.core import LatentCode, _norm
from embinvert.errors import (ConfigInvalid, DimensionMismatch, GradientUnavailable,
                              NonFiniteLoss)
from embinvert.models import (AttackSession, QueryLedger, SyntheticEmbedder,
                              SyntheticGenerator, WorldConfig, make_synthetic_world)
from embinvert.pool import build_pool, sample_latent
from embinvert.ranking import rank_candidates
from embinvert.refine import (
    PerturbationBudget,
    STOP_BUDGET,
    STOP_CONFIDENCE,
    project,
    refine_blackbox,
    refine_whitebox,
)

from conftest import DESK_SEED, forward
from oracle_loss import loss_eval, loss_gradient

L2 = lambda eps: PerturbationBudget("l2", eps)
LINF = lambda eps: PerturbationBudget("linf", eps)


class TestProject:
    def test_l2_overlong_lands_on_sphere(self):
        delta = np.array([3.0, 4.0])  # norm 5
        out = project(delta, L2(2.5))
        assert np.linalg.norm(out) == pytest.approx(2.5, abs=1e-12)
        assert np.allclose(out, delta / 2.0)

    def test_l2_inside_unchanged(self):
        delta = np.array([0.3, 0.4])
        assert np.array_equal(project(delta, L2(1.0)), delta)

    def test_linf_coordinate_clamp(self):
        eps = 0.5
        out = project(np.array([2 * eps, -0.5 * eps]), LINF(eps))
        assert np.array_equal(out, np.array([eps, -0.5 * eps]))

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, 16, elements=st.floats(-100, 100)),
           st.sampled_from(["l2", "linf"]),
           st.floats(min_value=0.01, max_value=50))
    def test_idempotent_and_feasible(self, delta, norm, eps):
        budget = PerturbationBudget(norm, eps)
        once = project(delta, budget)
        twice = project(once, budget)
        assert np.array_equal(once, twice)
        if norm == "l2":
            assert np.linalg.norm(once) <= eps * (1 + 1e-12)
        else:
            assert np.max(np.abs(once)) <= eps * (1 + 1e-12)

    def test_bad_budget_rejected(self):
        with pytest.raises(ConfigInvalid):
            PerturbationBudget("l1", 1.0)
        with pytest.raises(ConfigInvalid):
            PerturbationBudget("l2", 0.0)


def make_session(world, embedder_index=0, allow_gradient=True, q_max=None):
    ledger = QueryLedger(q_max=q_max)
    return AttackSession(world.generator, world.embedders[embedder_index],
                         ledger, allow_gradient)


def identity_target(world, embedder_index=0, identity=0, image=0):
    f = world.embedders[embedder_index]
    return forward(f, world.identities[identity].images[image])


class RecordingSession:
    """Session wrapper that records every latent handed to the objective."""

    def __init__(self, inner):
        self.inner = inner
        self.latents = []
        self.gradient_calls = 0

    @property
    def ledger(self):
        return self.inner.ledger

    @property
    def generator(self):
        return self.inner.generator

    def loss(self, latent_values, target):
        self.latents.append(np.array(latent_values))
        return self.inner.loss(latent_values, target)

    def value_and_grad(self, latent_values, target):
        self.latents.append(np.array(latent_values))
        self.gradient_calls += 1
        return self.inner.value_and_grad(latent_values, target)


class BrokenSession:
    """Objective turns NaN after a configurable number of evaluations."""

    def __init__(self, inner, break_after):
        self.inner = inner
        self.break_after = break_after
        self.calls = 0

    ledger = property(lambda self: self.inner.ledger)
    generator = property(lambda self: self.inner.generator)

    def _broken(self):
        self.calls += 1
        return self.calls > self.break_after

    def loss(self, latent_values, target):
        if self._broken():
            return float("nan")
        return self.inner.loss(latent_values, target)

    def value_and_grad(self, latent_values, target):
        if self._broken():
            return float("nan"), None
        return self.inner.value_and_grad(latent_values, target)


class TwoPassSession:
    """The objective from loss_eval and the gradient from loss_gradient, each
    with its own forward pass: the reference for the fused session.

    ``values`` holds every objective value in evaluation order, and each
    gradient request is logged as (index of the evaluated point it belongs
    to, number of points evaluated so far).
    """

    def __init__(self, world):
        self.generator = world.generator
        self.embedder = world.embedders[0]
        self.ledger = QueryLedger()
        self.values = []
        self.gradient_log = []

    @property
    def evaluated(self):
        return len(self.values)

    def loss(self, latent_values, target):
        self.ledger.charge_adv(1)
        self.values.append(loss_eval(self.generator, self.embedder,
                                     LatentCode(latent_values), target))
        return self.values[-1]

    def value_and_grad(self, latent_values, target):
        s = self.loss(latent_values, target)
        point = self.evaluated - 1

        def grad_fn():
            self.gradient_log.append((point, self.evaluated))
            return loss_gradient(self.generator, self.embedder,
                                 LatentCode(latent_values), target)

        return s, grad_fn


def same_result(a, b):
    return (a.trace == b.trace
            and np.array_equal(a.refined.values, b.refined.values)
            and a.initial_similarity == b.initial_similarity
            and a.final_similarity == b.final_similarity
            and a.queries_used == b.queries_used
            and a.iterations_used == b.iterations_used
            and a.stop_reason == b.stop_reason)


def reference_greedy_coordinate(scores, last_visit):
    """The greedy choice as a Python max over per-coordinate keys."""
    return max(range(scores.size), key=lambda j: (scores[j], -last_visit[j], -j))


def reference_checkpoints(t_max):
    """The step-review points of the checkpoint schedule: cumulative
    fractions of t_max whose gaps start at 0.22 and shrink by 0.03 down
    to 0.06."""
    points = []
    p_prev, p = 0.0, 0.22
    while True:
        w = math.ceil(p * t_max)
        if w >= t_max:
            break
        if not points or w > points[-1]:
            points.append(w)
        gap = max(p - p_prev - 0.03, 0.06)
        p_prev, p = p, p + gap
    return points


def reference_ascent(d, budget, t_max):
    """The checkpoint-reviewed white-box step rule that the backtracking
    rule replaced: the step is reviewed only at reference_checkpoints(t_max),
    and halved, from the best point, when fewer than 0.75 of the window's
    iterations improved on their predecessor or the best value stalled."""
    s_prev, grad_fn = yield
    step = refine._INITIAL_STEP_FACTOR * budget.epsilon
    delta = delta_prev = np.zeros(d)
    best_s, best_delta, best_grad_fn = s_prev, delta, grad_fn
    checkpoints = reference_checkpoints(t_max)
    successes = next_cp = window_start = 0
    best_at_last_cp = best_s
    halved_at_last_cp = True

    for it in range(1, t_max + 1):
        grad = grad_fn()
        if budget.norm == "l2":
            gnorm = _norm(grad)
            direction = grad / gnorm if gnorm > 0 else grad
        else:
            direction = np.sign(grad)
        z = project(delta + step * direction, budget)
        a = refine._MOMENTUM if it > 1 else 1.0
        candidate = project(delta + a * (z - delta) + (1.0 - a) * (delta - delta_prev),
                            budget)
        delta_prev, delta = delta, candidate

        s, grad_fn = yield delta
        if s > s_prev:
            successes += 1
        s_prev = s
        if s > best_s:
            best_s, best_delta, best_grad_fn = s, delta, grad_fn

        if next_cp < len(checkpoints) and it == checkpoints[next_cp]:
            window = it - window_start
            too_few = successes < 0.75 * window
            stalled = (not halved_at_last_cp) and (best_s <= best_at_last_cp)
            if too_few or stalled:
                step *= 0.5
                delta = delta_prev = best_delta
                grad_fn, s_prev = best_grad_fn, best_s
                halved_at_last_cp = True
            else:
                halved_at_last_cp = False
            best_at_last_cp = best_s
            successes, window_start = 0, it
            next_cp += 1


def reference_whitebox(x, target, session, budget, t_max, tau_C):
    """refine_whitebox run with reference_ascent as its step rule."""
    return refine._drive(x, target, session.value_and_grad, t_max, tau_C,
                         reference_ascent(x.values.size, budget, t_max))


class TestRefineWhitebox:
    def test_immediate_stop_when_already_at_target(self, desk_world):
        session = make_session(desk_world)
        x = sample_latent(desk_world.generator.d_lat, 5)
        target = forward(session.embedder, forward(session.generator, x))
        result = refine_whitebox(x, target, session, L2(35.0), t_max=50, tau_C=0.99)
        assert result.stop_reason == STOP_CONFIDENCE
        assert result.iterations_used == 0
        assert result.queries_used == 1
        assert result.trace == ()
        assert result.final_similarity == pytest.approx(1.0, abs=1e-9)
        assert result.refined == x

    def test_unreachable_bar_exhausts_budget_exactly(self, desk_world):
        session = make_session(desk_world)
        x = sample_latent(desk_world.generator.d_lat, 6)
        target = identity_target(desk_world)
        result = refine_whitebox(x, target, session, L2(35.0), t_max=40, tau_C=2.0)
        assert result.stop_reason == STOP_BUDGET
        assert result.iterations_used == 40
        assert len(result.trace) == 40
        assert result.queries_used == 41

    def test_desk_targets_reach_confidence(self, desk_world, desk_pool):
        reached = 0
        for t in range(10):
            target = identity_target(desk_world, identity=t % 20, image=t % 4)
            session = make_session(desk_world)
            x = desk_pool.entries[t].latent
            r = refine_whitebox(x, target, session, L2(35.0), t_max=200, tau_C=0.95)
            reached += r.stop_reason == STOP_CONFIDENCE
        assert reached >= 9

    def test_high_bar_reached_from_best_ranked_start(self):
        # eps 35, t_max 100, tau_C 0.98: at least 90% of 50 seeded targets
        # must clear the bar when refining the best-ranked candidate.
        from embinvert.models import WorldConfig, make_synthetic_world
        from embinvert.pool import build_pool
        from embinvert.ranking import rank_candidates

        world = make_synthetic_world(WorldConfig(embedder_dims=(128, 128)), 7)
        pool = build_pool(world.generator, world.detector, V=100,
                          tau_K=0.999, tau_D=0.999, build_seed=7)
        f0 = world.embedders[0]
        reached = 0
        for idx in range(50):
            rec = world.identities[idx % 20]
            target = forward(f0, rec.images[(idx // 20) % 4])
            (best,) = rank_candidates(pool, target, f0, 1)
            session = AttackSession(world.generator, f0, QueryLedger(), True)
            r = refine_whitebox(pool.entries[best.pool_index].latent, target,
                                session, L2(35.0), t_max=100, tau_C=0.98)
            reached += r.final_similarity >= 0.98
        assert reached >= 45

    def test_every_evaluated_iterate_is_feasible(self, desk_world):
        for norm, eps in (("l2", 5.0), ("linf", 0.4)):
            budget = PerturbationBudget(norm, eps)
            session = RecordingSession(make_session(desk_world))
            x = sample_latent(desk_world.generator.d_lat, 17)
            target = identity_target(desk_world, identity=3)
            refine_whitebox(x, target, session, budget, t_max=60, tau_C=0.999)
            for lat in session.latents:
                delta = lat - x.values
                size = (np.linalg.norm(delta) if norm == "l2"
                        else np.max(np.abs(delta)))
                assert size <= eps * (1 + 1e-6)

    def test_early_stop_exactness(self, desk_world, desk_pool):
        tau_C = 0.9
        session = make_session(desk_world)
        target = identity_target(desk_world, identity=1)
        x = desk_pool.entries[0].latent
        r = refine_whitebox(x, target, session, L2(35.0), t_max=200, tau_C=tau_C)
        if r.stop_reason == STOP_CONFIDENCE and r.trace:
            assert all(s < tau_C for s in r.trace[:-1])
            assert r.trace[-1] >= tau_C

    def test_final_similarity_is_best_so_far(self, desk_world):
        session = make_session(desk_world)
        x = sample_latent(desk_world.generator.d_lat, 21)
        target = identity_target(desk_world, identity=5)
        r = refine_whitebox(x, target, session, L2(3.0), t_max=80, tau_C=0.999)
        assert r.final_similarity == pytest.approx(
            max(list(r.trace) + [r.initial_similarity]), abs=1e-12)
        evaluated = session.loss(r.refined.values, target)
        assert evaluated == pytest.approx(r.final_similarity, abs=1e-9)

    def test_blackbox_session_cannot_be_used(self, desk_world):
        session = make_session(desk_world, allow_gradient=False)
        x = sample_latent(desk_world.generator.d_lat, 3)
        target = identity_target(desk_world)
        with pytest.raises(GradientUnavailable):
            refine_whitebox(x, target, session, L2(35.0), t_max=10, tau_C=0.95)

    def test_nonfinite_loss_aborts_with_trace(self, desk_world):
        session = BrokenSession(make_session(desk_world), break_after=4)
        x = sample_latent(desk_world.generator.d_lat, 3)
        target = identity_target(desk_world)
        with pytest.raises(NonFiniteLoss) as err:
            refine_whitebox(x, target, session, L2(35.0), t_max=30, tau_C=0.999)
        assert len(err.value.trace) == 3  # iterations completed before the break

    def test_zero_tmax_rejected(self, desk_world):
        session = make_session(desk_world)
        x = sample_latent(desk_world.generator.d_lat, 3)
        with pytest.raises(ConfigInvalid):
            refine_whitebox(x, identity_target(desk_world), session, L2(1.0),
                            t_max=0, tau_C=0.9)

    def test_fused_session_equals_two_pass_reference(self, desk_world, desk_pool):
        restarts = {"l2": 0, "linf": 0}
        for norm, eps, tau_C in (("l2", 35.0, 0.999), ("l2", 2.0, 0.97),
                                 ("linf", 0.3, 0.99), ("linf", 0.05, 0.95)):
            budget = PerturbationBudget(norm, eps)
            for t in range(12):
                x = desk_pool.entries[(7 * t) % 100].latent
                target = identity_target(desk_world, identity=t % 20, image=t % 4)
                fused = make_session(desk_world)
                two_pass = TwoPassSession(desk_world)
                a = refine_whitebox(x, target, fused, budget, t_max=80, tau_C=tau_C)
                b = refine_whitebox(x, target, two_pass, budget, t_max=80, tau_C=tau_C)
                assert same_result(a, b), (norm, eps, t)
                assert fused.ledger.q_adv == two_pass.ledger.q_adv == a.queries_used
                # A gradient is taken once, at the point just evaluated, and
                # only if that point is the best so far; every other point
                # but the last is a restart from the best point, along the
                # direction kept from its gradient.
                for point, seen in two_pass.gradient_log:
                    assert point == seen - 1
                    assert two_pass.values[point] == max(two_pass.values[:seen])
                restarts[norm] += two_pass.evaluated - 1 - len(two_pass.gradient_log)
        assert min(restarts.values()) >= 10, restarts

    def test_confident_start_runs_no_backward_pass(self, desk_world):
        session = TwoPassSession(desk_world)
        x = sample_latent(desk_world.generator.d_lat, 5)
        target = forward(session.embedder, forward(session.generator, x))
        r = refine_whitebox(x, target, session, L2(35.0), t_max=50, tau_C=0.99)
        assert r.stop_reason == STOP_CONFIDENCE
        assert session.gradient_log == []


@pytest.fixture(scope="module")
def deep_targets():
    """(world, [(rank-1 latent, target)]) for image 0 of identities 0-19 in
    the desk world with two 128-d embedders and a V=100 pool screened at
    0.99, as the first 20 targets of a white-box attack meet refinement."""
    world = make_synthetic_world(WorldConfig(embedder_dims=(128, 128)), DESK_SEED)
    pool = build_pool(world.generator, world.detector, V=100, tau_K=0.99,
                      tau_D=0.99, build_seed=DESK_SEED)
    f = world.embedders[0]
    cases = []
    for identity in range(20):
        target = forward(f, world.identities[identity].images[0])
        (best,) = rank_candidates(pool, target, f, 1)
        cases.append((pool.entries[best.pool_index].latent, target))
    return world, cases


class PullbackCountingGenerator(SyntheticGenerator):
    """A generator that numbers its forward passes and logs, for each
    backward pass, the number of the forward pass it belongs to."""

    def __init__(self, inner):
        self.__dict__.update(inner.__dict__)
        self.forward_passes = 0
        self.backward_of = []

    def generate_vjp(self, latent_values):
        point = self.forward_passes
        self.forward_passes += 1
        image, pullback = super().generate_vjp(latent_values)

        def counted(cotangent):
            self.backward_of.append(point)
            return pullback(cotangent)

        return image, counted


class TestBacktracking:
    @pytest.mark.parametrize("budget", [L2(35.0), LINF(1.5)], ids=["l2-35", "linf-1.5"])
    def test_a_run_that_always_improves_equals_the_checkpoint_rule(self, deep_targets,
                                                                   budget):
        world, cases = deep_targets
        rising = 0
        for tau_C in (0.97, 0.99, 0.999):
            for x, target in cases:
                reference = reference_whitebox(x, target, make_session(world), budget,
                                               t_max=100, tau_C=tau_C)
                values = (reference.initial_similarity,) + reference.trace
                if all(b > a for a, b in zip(values, values[1:])):
                    rising += 1
                    r = refine_whitebox(x, target, make_session(world), budget,
                                        t_max=100, tau_C=tau_C)
                    assert same_result(r, reference), (tau_C, reference.trace)
        assert rising >= 5

    def test_mean_iterations_to_a_high_bar(self, deep_targets):
        world, cases = deep_targets
        iterations = [refine_whitebox(x, target, make_session(world), L2(35.0),
                                      t_max=100, tau_C=0.999).iterations_used
                      for x, target in cases]
        assert np.mean(iterations) <= 35, iterations

    @pytest.mark.parametrize("budget", [L2(35.0), LINF(1.5)], ids=["l2-35", "linf-1.5"])
    def test_each_backward_pass_runs_at_most_once(self, deep_targets, budget):
        world, cases = deep_targets
        restarts = 0
        for x, target in cases:
            generator = PullbackCountingGenerator(world.generator)
            session = AttackSession(generator, world.embedders[0], QueryLedger(), True)
            r = refine_whitebox(x, target, session, budget, t_max=100, tau_C=0.999)
            assert generator.forward_passes == r.queries_used
            assert len(set(generator.backward_of)) == len(generator.backward_of)
            restarts += r.queries_used - 1 - len(generator.backward_of)
        assert restarts >= 20


class TestRefineBlackbox:
    def test_single_evaluation_when_already_at_target(self, desk_world):
        session = make_session(desk_world, allow_gradient=False)
        x = sample_latent(desk_world.generator.d_lat, 5)
        target = forward(session.embedder, forward(session.generator, x))
        r = refine_blackbox(x, target, session, L2(35.0), query_cap=100, tau_C=0.99)
        assert r.queries_used == 1
        assert r.iterations_used == 0
        assert r.stop_reason == STOP_CONFIDENCE

    def test_queries_never_exceed_cap(self, desk_world):
        for seed in range(20):
            session = make_session(desk_world, allow_gradient=False)
            x = sample_latent(desk_world.generator.d_lat, 100 + seed)
            target = identity_target(desk_world, identity=seed % 20)
            cap = 50 + 10 * seed
            r = refine_blackbox(x, target, session, L2(35.0), query_cap=cap,
                                tau_C=0.999)
            assert r.queries_used <= cap
            assert r.queries_used == session.ledger.q_adv
            assert r.iterations_used == r.queries_used - 1

    def test_never_requests_gradients(self, desk_world):
        session = RecordingSession(make_session(desk_world, allow_gradient=False))
        x = sample_latent(desk_world.generator.d_lat, 9)
        target = identity_target(desk_world, identity=2)
        refine_blackbox(x, target, session, L2(35.0), query_cap=200, tau_C=0.999)
        assert session.gradient_calls == 0

    def test_iterates_stay_feasible(self, desk_world):
        for norm, eps in (("l2", 4.0), ("linf", 0.3)):
            budget = PerturbationBudget(norm, eps)
            session = RecordingSession(make_session(desk_world, allow_gradient=False))
            x = sample_latent(desk_world.generator.d_lat, 23)
            target = identity_target(desk_world, identity=7)
            refine_blackbox(x, target, session, budget, query_cap=300, tau_C=0.999)
            for lat in session.latents:
                delta = lat - x.values
                size = (np.linalg.norm(delta) if norm == "l2"
                        else np.max(np.abs(delta)))
                assert size <= eps * (1 + 1e-6)

    def test_improves_over_start(self, desk_world, desk_pool):
        session = make_session(desk_world, allow_gradient=False)
        target = identity_target(desk_world, identity=4)
        x = desk_pool.entries[10].latent
        r = refine_blackbox(x, target, session, L2(35.0), query_cap=2000, tau_C=0.999)
        assert r.final_similarity > r.initial_similarity + 0.1

    def test_best_similarity_monotone_in_budget(self, desk_world, desk_pool):
        target = identity_target(desk_world, identity=9)
        x = desk_pool.entries[3].latent
        bests = []
        for cap in (100, 400, 1600):
            session = make_session(desk_world, allow_gradient=False)
            r = refine_blackbox(x, target, session, L2(35.0), query_cap=cap,
                                tau_C=0.9999)
            bests.append(r.final_similarity)
        assert bests == sorted(bests)

    def test_trace_at_a_smaller_cap_is_the_truncated_trace(self, desk_world,
                                                           desk_pool):
        # query_cap is read only in the loop guard, so a smaller cap stops
        # the same search earlier: a candidate's trace at cap c is its trace
        # at a larger cap cut to c - 1 iterations, and its result is the
        # best point of that prefix.
        f = desk_world.embedders[0]
        for identity, tau_C in ((1, 0.999), (8, 0.999), (12, 0.8)):
            target = identity_target(desk_world, identity=identity, image=1)
            for cand in rank_candidates(desk_pool, target, f, 3):
                x = desk_pool.entries[cand.pool_index].latent
                run = lambda cap: refine_blackbox(
                    x, target, make_session(desk_world, allow_gradient=False),
                    L2(35.0), query_cap=cap, tau_C=tau_C)
                full = run(800)
                for cap in (1, 2, 37, 250):
                    short = run(cap)
                    prefix = full.trace[:cap - 1]
                    assert short.trace == prefix
                    assert short.initial_similarity == full.initial_similarity
                    assert short.final_similarity == max(
                        (full.initial_similarity,) + prefix)
                    if len(prefix) == len(full.trace):
                        assert same_result(short, full)

    def test_nonfinite_loss_aborts(self, desk_world):
        session = BrokenSession(make_session(desk_world, allow_gradient=False),
                                break_after=10)
        x = sample_latent(desk_world.generator.d_lat, 3)
        with pytest.raises(NonFiniteLoss):
            refine_blackbox(x, identity_target(desk_world), session, L2(35.0),
                            query_cap=100, tau_C=0.999)

    def test_zero_cap_rejected(self, desk_world):
        session = make_session(desk_world, allow_gradient=False)
        x = sample_latent(desk_world.generator.d_lat, 3)
        with pytest.raises(ConfigInvalid):
            refine_blackbox(x, identity_target(desk_world), session, L2(1.0),
                            query_cap=0, tau_C=0.9)


def selection_opening(world, pool, identity=0, image=1):
    """(target, rank-1 latent, slope of the fit to its V selection
    similarities), as run_attack hands them to refine_blackbox."""
    f = world.embedders[0]
    target = identity_target(world, identity=identity, image=image)
    sims = np.empty(pool.V)
    (best,) = rank_candidates(pool, target, f, 1, out=sims)
    return target, pool.entries[best.pool_index].latent, pool.similarity_slope(sims)


def line_search_points(x, direction, budget):
    """Every latent the opening may evaluate, in order."""
    unit = direction / np.linalg.norm(direction)
    return [x.values + project(step * unit, budget)
            for step in refine._LINE_SEARCH_STEPS]


class TestLineSearchOpening:
    def test_opens_along_the_direction_and_charges_every_point(self, desk_world,
                                                                desk_pool):
        target, x, g = selection_opening(desk_world, desk_pool)
        session = RecordingSession(make_session(desk_world, allow_gradient=False))
        r = refine_blackbox(x, target, session, L2(35.0), query_cap=300,
                            tau_C=0.9999, direction=g)
        # The initial evaluation plus one query per trace entry.
        assert session.ledger.q_adv == len(r.trace) + 1 == r.queries_used
        assert len(session.latents) == session.ledger.q_adv
        # Five points improve and the sixth (step 16) does not.
        expected = line_search_points(x, g, L2(35.0))[:6]
        assert all(np.array_equal(a, b)
                   for a, b in zip(session.latents[1:7], expected))
        assert list(r.trace[:5]) == sorted(r.trace[:5])
        assert r.trace[0] > r.initial_similarity and r.trace[5] <= r.trace[4]
        plain = refine_blackbox(x, target,
                                make_session(desk_world, allow_gradient=False),
                                L2(35.0), query_cap=300, tau_C=0.9999)
        assert r.final_similarity > plain.final_similarity

    @pytest.mark.parametrize("norm, eps", [("l2", 1.0), ("l2", 35.0),
                                           ("linf", 0.3), ("linf", 1.5)])
    def test_every_line_search_point_is_in_the_ball(self, desk_world, desk_pool,
                                                    norm, eps):
        budget = PerturbationBudget(norm, eps)
        target, x, g = selection_opening(desk_world, desk_pool, identity=5)
        session = RecordingSession(make_session(desk_world, allow_gradient=False))
        refine_blackbox(x, target, session, budget, query_cap=50, tau_C=0.9999,
                        direction=g)
        assert np.array_equal(session.latents[1],
                              line_search_points(x, g, budget)[0])
        for lat in session.latents:
            delta = lat - x.values
            size = np.linalg.norm(delta) if norm == "l2" else np.max(np.abs(delta))
            assert size <= eps * (1 + 1e-12)

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_stops_at_the_query_cap(self, desk_world, desk_pool, cap):
        target, x, g = selection_opening(desk_world, desk_pool)
        run = lambda cap: refine_blackbox(
            x, target, make_session(desk_world, allow_gradient=False), L2(35.0),
            query_cap=cap, tau_C=0.9999, direction=g)
        full, short = run(300), run(cap)
        assert short.queries_used == cap
        assert short.stop_reason == STOP_BUDGET
        assert short.trace == full.trace[:cap - 1]
        assert short.final_similarity == max((full.initial_similarity,)
                                             + full.trace[:cap - 1])

    def test_stops_at_tau_C_on_the_first_point(self, desk_world, desk_pool):
        target, x, g = selection_opening(desk_world, desk_pool)
        first = refine_blackbox(x, target,
                                make_session(desk_world, allow_gradient=False),
                                L2(35.0), query_cap=300, tau_C=0.9999,
                                direction=g).trace[0]
        session = make_session(desk_world, allow_gradient=False)
        r = refine_blackbox(x, target, session, L2(35.0), query_cap=300,
                            tau_C=first, direction=g)
        assert r.initial_similarity < first
        assert r.stop_reason == STOP_CONFIDENCE
        assert r.trace == (first,) and r.final_similarity == first
        assert session.ledger.q_adv == 2
        expected = line_search_points(x, g, L2(35.0))[0]
        assert np.array_equal(r.refined.values, expected)

    @pytest.mark.parametrize("where, fill", [
        (slice(None), 0.0), (slice(None), np.nan), (7, np.nan), (7, np.inf),
    ], ids=["zero", "all-nan", "one-nan", "one-inf"])
    def test_zero_or_non_finite_direction_is_the_plain_search(
            self, desk_world, desk_pool, where, fill):
        target, x, g = selection_opening(desk_world, desk_pool)
        direction = g.copy()
        direction[where] = fill
        run = lambda **kw: refine_blackbox(
            x, target, make_session(desk_world, allow_gradient=False), L2(35.0),
            query_cap=300, tau_C=0.9, **kw)
        assert same_result(run(direction=direction), run())

    def test_direction_of_the_wrong_shape_rejected(self, desk_world, desk_pool):
        target, x, g = selection_opening(desk_world, desk_pool)
        with pytest.raises(DimensionMismatch):
            refine_blackbox(x, target, make_session(desk_world, allow_gradient=False),
                            L2(35.0), query_cap=10, tau_C=0.9, direction=g[:-1])


def saturating_linf(direction):
    """A Linf ball that the opening's first step already fills in every
    coordinate, so every later step projects onto that first point."""
    return LINF(0.5 * np.min(np.abs(direction / np.linalg.norm(direction))))


class TestOpeningAtTheBoundary:
    @pytest.mark.parametrize("make_budget", [lambda g: L2(1.0), lambda g: L2(5.0),
                                             saturating_linf],
                             ids=["l2-1", "l2-5", "linf-saturated"])
    def test_a_clipped_step_is_not_charged(self, desk_world, desk_pool, make_budget):
        target, x, g = selection_opening(desk_world, desk_pool)
        budget = make_budget(g)
        points = line_search_points(x, g, budget)
        # The opening improves up to step m, whose projection repeats step m-1.
        m = next(j for j in range(1, len(points))
                 if np.array_equal(points[j], points[j - 1]))
        session = RecordingSession(make_session(desk_world, allow_gradient=False))
        r = refine_blackbox(x, target, session, budget, query_cap=m + 2, tau_C=0.9,
                            direction=g)
        opening = session.latents[1:m + 1]
        assert all(np.array_equal(a, b) for a, b in zip(opening, points[:m]))
        assert list(r.trace[:m]) == sorted(r.trace[:m])
        assert r.trace[0] > r.initial_similarity
        # No two consecutive points are equal, and none is charged twice:
        # the query after the opening goes to the greedy search.
        charged = {lat.tobytes() for lat in session.latents}
        assert len(charged) == len(session.latents) == m + 2

    @pytest.mark.parametrize("break_after", [3, 10],
                             ids=["in-the-opening", "in-the-greedy-search"])
    def test_nonfinite_loss_carries_the_trace(self, desk_world, desk_pool, break_after):
        target, x, g = selection_opening(desk_world, desk_pool)
        run = lambda session: refine_blackbox(x, target, session, L2(35.0),
                                              query_cap=100, tau_C=0.9999, direction=g)
        clean = run(make_session(desk_world, allow_gradient=False))
        # Steps 0.5-8 improve and step 16 does not: queries 2-7 are the opening.
        assert list(clean.trace[:5]) == sorted(clean.trace[:5])
        assert clean.trace[5] <= clean.trace[4]
        broken = BrokenSession(make_session(desk_world, allow_gradient=False),
                               break_after=break_after)
        with pytest.raises(NonFiniteLoss) as err:
            run(broken)
        assert tuple(err.value.trace) == clean.trace[:break_after - 1]


class TestGreedyAtTheBoundary:
    @pytest.mark.parametrize("eps", [0.05, 0.3, 1.5])
    def test_a_clipped_proposal_is_not_charged(self, desk_world, desk_pool, eps):
        target, x, g = selection_opening(desk_world, desk_pool)
        session = RecordingSession(make_session(desk_world, allow_gradient=False))
        r = refine_blackbox(x, target, session, LINF(eps), query_cap=300,
                            tau_C=0.9999, direction=g)
        assert len(session.latents) == r.queries_used == 300
        # No charged point repeats the point the search held when it was
        # proposed: the best one so far.
        values = (r.initial_similarity,) + r.trace
        held = 0
        for k in range(1, len(values)):
            assert not np.array_equal(session.latents[k], session.latents[held]), k
            if values[k] > values[held]:
                held = k


class NaNEmbedder(SyntheticEmbedder):
    """A gradient-capable embedder whose ``embed_vjp`` returns a NaN
    embedding, with its inner embedder's pullback."""

    def __init__(self, inner):
        self.__dict__.update(inner.__dict__)

    def embed_vjp(self, image):
        unit, pullback = super().embed_vjp(image)
        return np.full_like(unit, np.nan), pullback


class TestNaNEmbedding:
    @pytest.mark.parametrize("refiner", ["whitebox", "blackbox"])
    def test_each_refiner_raises_nonfinite_loss(self, desk_world, refiner):
        session = AttackSession(desk_world.generator,
                                NaNEmbedder(desk_world.embedders[0]), QueryLedger(),
                                allow_gradient=refiner == "whitebox")
        x = sample_latent(desk_world.generator.d_lat, 3)
        target = identity_target(desk_world)
        with pytest.raises(NonFiniteLoss, match="nan"):
            if refiner == "whitebox":
                refine_whitebox(x, target, session, L2(35.0), t_max=10, tau_C=0.95)
            else:
                refine_blackbox(x, target, session, L2(35.0), query_cap=10,
                                tau_C=0.95)
        assert session.ledger.total == 1


class TestGreedyCoordinate:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_reference_max(self, data):
        d = data.draw(st.integers(1, 40))
        scores = np.array(data.draw(st.lists(
            st.sampled_from([0.0, 0.25, 1e-300, 0.5, np.inf]), min_size=d, max_size=d)))
        last_visit = np.array(data.draw(st.lists(st.integers(-1, 3), min_size=d,
                                                 max_size=d)), dtype=np.int64)
        assert (refine._greedy_coordinate(scores, last_visit)
                == reference_greedy_coordinate(scores, last_visit))

    def test_refinement_equals_reference_choice(self, desk_world, desk_pool,
                                                monkeypatch):
        cases = []
        for seed in range(30):
            budget = L2(35.0) if seed % 2 else LINF(0.4)
            x = (sample_latent(desk_world.generator.d_lat, 300 + seed) if seed % 3
                 else desk_pool.entries[seed].latent)
            target = identity_target(desk_world, identity=seed % 20, image=seed % 4)
            cases.append((x, target, budget, 150 + 20 * seed))

        def run_all():
            results = []
            for x, target, budget, cap in cases:
                session = make_session(desk_world, allow_gradient=False)
                results.append(refine_blackbox(x, target, session, budget,
                                               query_cap=cap, tau_C=0.95))
            return results

        vectorised = run_all()
        monkeypatch.setattr(refine, "_greedy_coordinate", reference_greedy_coordinate)
        for a, b in zip(vectorised, run_all()):
            assert same_result(a, b)


# (refiner, norm, epsilon, seed, iterations_used, queries_used, stop_reason,
#  float.hex(final_similarity)) of fixed runs on the desk world: the latent
# sample_latent(d_lat, seed) refined towards image seed % 4 of identity
# seed % 20 under embedder 0.  White-box runs take t_max 100 and tau_C 0.97,
# black-box runs query_cap 1500 and tau_C 0.9.  A change to any schedule or
# search constant moves at least one row.
PINNED_RUNS = [
    ("white", "l2", 35.0, 3, 3, 4, "confidence_reached", "0x1.f29e02a5997a5p-1"),
    ("white", "l2", 35.0, 17, 6, 7, "confidence_reached", "0x1.f447d160045f8p-1"),
    ("white", "l2", 35.0, 41, 4, 5, "confidence_reached", "0x1.f39114ed86d1fp-1"),
    ("white", "l2", 3.0, 3, 100, 101, "budget_exhausted", "0x1.a72257e0b8635p-1"),
    ("white", "l2", 3.0, 17, 100, 101, "budget_exhausted", "0x1.7414e5cc23594p-4"),
    ("white", "l2", 3.0, 41, 100, 101, "budget_exhausted", "0x1.7062dc54d54bep-1"),
    ("white", "linf", 0.4, 3, 100, 101, "budget_exhausted", "0x1.85fabcecde873p-1"),
    ("white", "linf", 0.4, 17, 100, 101, "budget_exhausted", "-0x1.ab9cb4e1c8dd1p-8"),
    ("white", "linf", 0.4, 41, 100, 101, "budget_exhausted", "0x1.328832202ad74p-1"),
    ("white", "linf", 1.5, 3, 8, 9, "confidence_reached", "0x1.f0b7b8a57aa95p-1"),
    ("white", "linf", 1.5, 17, 25, 26, "confidence_reached", "0x1.f12a4d0f1afedp-1"),
    ("white", "linf", 1.5, 41, 11, 12, "confidence_reached", "0x1.f2e076dff9bbcp-1"),
    ("black", "l2", 35.0, 3, 121, 122, "confidence_reached", "0x1.ccdf11c1d7b80p-1"),
    ("black", "l2", 35.0, 17, 381, 382, "confidence_reached", "0x1.ccd1c1bc7bd9fp-1"),
    ("black", "l2", 35.0, 41, 213, 214, "confidence_reached", "0x1.cd3fc4e5264fbp-1"),
    ("black", "l2", 3.0, 3, 1499, 1500, "budget_exhausted", "0x1.88293f3cba5b6p-1"),
    ("black", "l2", 3.0, 17, 1499, 1500, "budget_exhausted", "-0x1.b39c4a5158630p-5"),
    ("black", "l2", 3.0, 41, 1499, 1500, "budget_exhausted", "0x1.25abda79683b1p-1"),
    ("black", "linf", 0.4, 3, 1499, 1500, "budget_exhausted", "0x1.386c41ac9a960p-1"),
    ("black", "linf", 0.4, 17, 1499, 1500, "budget_exhausted", "-0x1.7f8d21e64117bp-3"),
    ("black", "linf", 0.4, 41, 1499, 1500, "budget_exhausted", "0x1.6354ce2b98588p-2"),
    ("black", "linf", 1.5, 3, 262, 263, "confidence_reached", "0x1.ccdce6c394cafp-1"),
    ("black", "linf", 1.5, 17, 1499, 1500, "budget_exhausted", "0x1.5aebb904b5406p-1"),
    ("black", "linf", 1.5, 41, 1499, 1500, "budget_exhausted", "0x1.b65f00cbbcfffp-1"),
]


class TestPinnedRuns:
    @pytest.mark.parametrize(
        "kind, norm, eps, seed, iterations, queries, stop_reason, final_hex",
        PINNED_RUNS, ids=[f"{r[0]}-{r[1]}-{r[2]}-{r[3]}" for r in PINNED_RUNS])
    def test_refinement_run_is_pinned(self, desk_world, kind, norm, eps, seed,
                                      iterations, queries, stop_reason,
                                      final_hex):
        x = sample_latent(desk_world.generator.d_lat, seed)
        target = identity_target(desk_world, identity=seed % 20, image=seed % 4)
        budget = PerturbationBudget(norm, eps)
        if kind == "white":
            r = refine_whitebox(x, target, make_session(desk_world), budget,
                                t_max=100, tau_C=0.97)
        else:
            r = refine_blackbox(x, target,
                                make_session(desk_world, allow_gradient=False),
                                budget, query_cap=1500, tau_C=0.9)
        assert (r.iterations_used, r.queries_used, r.stop_reason,
                float.hex(r.final_similarity)) == (iterations, queries,
                                                   stop_reason, final_hex)
