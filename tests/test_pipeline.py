import dataclasses

import numpy as np
import pytest

from embinvert.config import RunConfig
from embinvert.core import TargetSpec
from embinvert.errors import AllCandidatesFailed, BudgetTooSmall, ConfigInvalid
from embinvert.models import AttackSession, Backend, QueryLedger
from embinvert.pipeline import (
    AttackSettings,
    MODE_BLACKBOX,
    MODE_WHITEBOX,
    compute_tmax,
    ranked_adversary,
    run_attack,
)
from embinvert.ranking import rank_candidates
from embinvert.refine import STOP_BUDGET, PerturbationBudget
from test_evaluation import CountingEmbedder


class TestComputeTmax:
    def test_paper_scale_spot_value(self):
        assert compute_tmax(20_000, 1000, 3) == 6333

    def test_single_query_budget(self):
        assert compute_tmax(1001, 1000, 1) == 1

    def test_budget_equal_to_selection_cost_rejected(self):
        with pytest.raises(BudgetTooSmall):
            compute_tmax(1000, 1000, 3)

    def test_budget_leaving_a_zero_cap_rejected(self):
        with pytest.raises(BudgetTooSmall, match="no refinement queries"):
            compute_tmax(102, 100, 3)

    def test_floor_division(self):
        assert compute_tmax(107, 100, 3) == 2
        assert compute_tmax(109, 100, 3) == 3


def _session(world, mode, q_max=None):
    return AttackSession(world.generator, world.embedders[0], QueryLedger(q_max),
                         allow_gradient=(mode == MODE_WHITEBOX))


def _target(world, identity=0, image=0):
    return world.embedders[0].embed(world.identities[identity].images[image])


class TestRankedAdversary:
    def test_rank_one_already_confident_stops_immediately(self, desk_world, desk_pool):
        # A target built from a pool entry itself: rank 1 scores 1.0 outright.
        f = desk_world.embedders[0]
        target = f.embed(desk_pool.entries[5].image)
        session = _session(desk_world, MODE_WHITEBOX)
        ranked = rank_candidates(desk_pool, target, f, 3, session.ledger)
        result = ranked_adversary(desk_pool, ranked, target, session,
                                  PerturbationBudget("l2", 35.0), tau_C=0.99,
                                  mode=MODE_WHITEBOX, t_max=50)
        assert result.chosen_rank == 1
        assert len(result.candidate_traces) == 1
        assert result.candidate_traces[0].iterations_used == 0
        assert result.final_similarity >= 0.99

    def test_fallback_refines_all_and_takes_argmax(self, desk_world, desk_pool):
        f = desk_world.embedders[0]
        target = _target(desk_world, identity=6)
        session = _session(desk_world, MODE_WHITEBOX)
        ranked = rank_candidates(desk_pool, target, f, 3, session.ledger)
        result = ranked_adversary(desk_pool, ranked, target, session,
                                  PerturbationBudget("l2", 35.0), tau_C=0.999,
                                  mode=MODE_WHITEBOX, t_max=2)
        assert len(result.candidate_traces) == 3
        finals = [r.final_similarity for r in result.candidate_traces]
        assert result.final_similarity == max(finals)
        assert result.chosen_rank == result.candidates[int(np.argmax(finals))].rank

    def test_pinned_rank_overtake_case(self, desk_world, desk_pool):
        # Found by seed search: at eps 2.5 the rank-2 start refines past rank 1.
        f = desk_world.embedders[0]
        target = f.embed(desk_world.identities[14].images[3])
        session = _session(desk_world, MODE_WHITEBOX)
        ranked = rank_candidates(desk_pool, target, f, 3, session.ledger)
        result = ranked_adversary(desk_pool, ranked, target, session,
                                  PerturbationBudget("l2", 2.5), tau_C=0.95,
                                  mode=MODE_WHITEBOX, t_max=60)
        assert result.chosen_rank == 2
        finals = [r.final_similarity for r in result.candidate_traces]
        assert finals[1] > finals[0]
        # ranking put candidate 1 first for a reason
        inits = [c.initial_similarity for c in result.candidates]
        assert inits[0] >= inits[1]

    def test_sequential_order_audit(self, desk_world, desk_pool):
        f = desk_world.embedders[0]
        for identity in range(8):
            target = _target(desk_world, identity=identity)
            session = _session(desk_world, MODE_WHITEBOX)
            ranked = rank_candidates(desk_pool, target, f, 3, session.ledger)
            result = ranked_adversary(desk_pool, ranked, target, session,
                                      PerturbationBudget("l2", 35.0), tau_C=0.95,
                                      mode=MODE_WHITEBOX, t_max=100)
            # every refined candidate except possibly the last one failed
            for trace in result.candidate_traces[:-1]:
                assert trace.stop_reason == STOP_BUDGET
                assert trace.final_similarity < 0.95

    def test_all_candidates_failing_raises(self, desk_world, desk_pool):
        class NaNSession:
            generator = desk_world.generator
            ledger = QueryLedger()

            def loss(self, latent_values, target):
                return float("nan")

            def value_and_grad(self, latent_values, target):
                return float("nan"), lambda: np.zeros_like(latent_values)

        f = desk_world.embedders[0]
        target = _target(desk_world)
        ranked = rank_candidates(desk_pool, target, f, 3)
        with pytest.raises(AllCandidatesFailed):
            ranked_adversary(desk_pool, ranked, target, NaNSession(),
                             PerturbationBudget("l2", 35.0), tau_C=0.95,
                             mode=MODE_WHITEBOX, t_max=5)

    def test_mode_validation(self, desk_world, desk_pool):
        f = desk_world.embedders[0]
        target = _target(desk_world)
        session = _session(desk_world, MODE_WHITEBOX)
        ranked = rank_candidates(desk_pool, target, f, 2)
        with pytest.raises(ConfigInvalid):
            ranked_adversary(desk_pool, ranked, target, session,
                             PerturbationBudget("l2", 1.0), tau_C=0.9,
                             mode="sideways", t_max=5)
        with pytest.raises(ConfigInvalid):
            ranked_adversary(desk_pool, ranked, target, session,
                             PerturbationBudget("l2", 1.0), tau_C=0.9,
                             mode=MODE_WHITEBOX)  # missing t_max


# (mode, t_max, q_max, top_n): white-box takes t_max and no q_max,
# black-box q_max and no t_max; t_max, q_max and N are each >= 1.
GOOD_BUDGETS = [
    (MODE_WHITEBOX, 1, None, 1),
    (MODE_WHITEBOX, 5, None, 3),
    (MODE_BLACKBOX, None, 1, 1),
    (MODE_BLACKBOX, None, 20, 2),
]
BAD_BUDGETS = [
    (MODE_WHITEBOX, None, None, 3),
    (MODE_WHITEBOX, 5, 100, 3),
    (MODE_WHITEBOX, None, 100, 3),
    (MODE_BLACKBOX, None, None, 3),
    (MODE_BLACKBOX, 5, 100, 3),
    (MODE_BLACKBOX, 5, None, 3),
    ("sideways", 5, None, 3),
    ("sideways", None, 100, 3),
    (MODE_WHITEBOX, 0, None, 3),
    (MODE_WHITEBOX, -2, None, 3),
    (MODE_BLACKBOX, None, 0, 3),
    (MODE_WHITEBOX, 5, None, 0),
    (MODE_BLACKBOX, None, 20, 0),
]


class TestModeBudgetRule:
    """RunConfig, AttackSettings and ranked_adversary apply one rule, and
    compute_tmax applies its black-box part."""

    @staticmethod
    def entry_points(world, pool, ledger):
        f = world.embedders[0]
        target = _target(world)
        ranked = rank_candidates(pool, target, f, 3)

        def run_config(mode, t_max, q_max, top_n):
            RunConfig(mode=mode, t_max=t_max, q_max=q_max, top_n=top_n).validate()

        def settings(mode, t_max, q_max, top_n):
            AttackSettings(mode=mode, budget=PerturbationBudget("l2", 1.0),
                           tau_C=0.9, n_top=top_n, t_max=t_max, q_max=q_max)

        def adversary(mode, t_max, q_max, top_n):
            session = AttackSession(world.generator, f, ledger,
                                    allow_gradient=(mode == MODE_WHITEBOX))
            ranked_adversary(pool, ranked[:top_n], target, session,
                             PerturbationBudget("l2", 1.0), tau_C=0.9,
                             mode=mode, t_max=t_max, query_cap=q_max)

        return run_config, settings, adversary

    @pytest.mark.parametrize("row", GOOD_BUDGETS)
    def test_good_rows_accepted_everywhere(self, desk_world, desk_pool, row):
        for accept in self.entry_points(desk_world, desk_pool, QueryLedger()):
            accept(*row)

    @pytest.mark.parametrize("row", BAD_BUDGETS)
    def test_bad_rows_rejected_everywhere_with_one_message(self, desk_world,
                                                            desk_pool, row):
        ledger = QueryLedger()
        messages = []
        for reject in self.entry_points(desk_world, desk_pool, ledger):
            with pytest.raises(ConfigInvalid) as excinfo:
                reject(*row)
            messages.append(str(excinfo.value))
        assert len(set(messages)) == 1, messages
        assert ledger.total == 0  # rejected before any query

    @pytest.mark.parametrize("row", [r for r in BAD_BUDGETS
                                     if r[0] == MODE_BLACKBOX and r[1] is None])
    def test_compute_tmax_rejects_bad_blackbox_rows_with_the_same_message(
            self, desk_world, desk_pool, row):
        _mode, _t_max, q_max, top_n = row
        messages = []
        for reject in self.entry_points(desk_world, desk_pool, QueryLedger()):
            with pytest.raises(ConfigInvalid) as excinfo:
                reject(*row)
            messages.append(str(excinfo.value))
        with pytest.raises(ConfigInvalid) as excinfo:
            compute_tmax(q_max, desk_pool.V, top_n)
        assert str(excinfo.value) == messages[0]


WHITEBOX_SETTINGS = AttackSettings(
    mode=MODE_WHITEBOX,
    budget=PerturbationBudget("l2", 35.0),
    tau_C=0.95,
    n_top=3,
    t_max=200,
)


def make_spec(world, identity=0, image=0, with_identity_id=True):
    f = world.embedders[0]
    return TargetSpec(
        target_embedding=f.embed(world.identities[identity].images[image]),
        target_model_id=f.model_id,
        identity_id=world.identities[identity].identity_id if with_identity_id else None,
    )


class TestRunAttack:
    def test_selection_cost_equals_pool_volume(self, desk_world, desk_pool):
        result = run_attack(make_spec(desk_world), desk_pool, WHITEBOX_SETTINGS,
                            desk_world)
        assert result.ledger.q_topn == 100
        assert result.ledger.q_adv == sum(
            t.queries_used for t in result.candidate_traces)

    def test_blackbox_total_within_budget(self, desk_world, desk_pool):
        settings = AttackSettings(
            mode=MODE_BLACKBOX,
            budget=PerturbationBudget("l2", 35.0),
            tau_C=0.95,
            n_top=3,
            q_max=5000,
        )
        for identity in range(5):
            result = run_attack(make_spec(desk_world, identity=identity),
                                desk_pool, settings, desk_world)
            assert result.ledger.total <= 5000
            assert result.ledger.q_topn == 100
            t_max = compute_tmax(5000, 100, 3)
            assert result.ledger.q_adv <= 3 * t_max

    def test_deterministic_modulo_wall_time(self, desk_world, desk_pool):
        a = run_attack(make_spec(desk_world, identity=2), desk_pool,
                       WHITEBOX_SETTINGS, desk_world)
        b = run_attack(make_spec(desk_world, identity=2), desk_pool,
                       WHITEBOX_SETTINGS, desk_world)
        assert a.refined_latent == b.refined_latent
        assert a.reconstruction == b.reconstruction
        assert a.final_similarity == b.final_similarity
        assert a.chosen_rank == b.chosen_rank
        assert a.ledger.total == b.ledger.total
        assert [t.trace for t in a.candidate_traces] == [
            t.trace for t in b.candidate_traces]

    def test_attack_never_reads_identity_annotation(self, desk_world, desk_pool):
        class TrappedSpec:
            """Access-trapping stand-in: identity_id explodes on read."""

            def __init__(self, base):
                self.target_embedding = base.target_embedding
                self.target_model_id = base.target_model_id

            @property
            def identity_id(self):
                raise AssertionError("attack path read identity_id")

        trapped = TrappedSpec(make_spec(desk_world, identity=3))
        result = run_attack(trapped, desk_pool, WHITEBOX_SETTINGS, desk_world)
        assert result.final_similarity > 0

    def test_settings_validation(self):
        with pytest.raises(ConfigInvalid):
            AttackSettings(mode=MODE_WHITEBOX,
                           budget=PerturbationBudget("l2", 1.0),
                           tau_C=0.9, n_top=3, t_max=None)
        with pytest.raises(ConfigInvalid):
            AttackSettings(mode=MODE_BLACKBOX,
                           budget=PerturbationBudget("l2", 1.0),
                           tau_C=0.9, n_top=3, t_max=5, q_max=100)

    def test_blackbox_success_rate_non_decreasing_in_budget(self):
        # End-to-end black-box runs over growing query budgets.  The greedy
        # refiner's path does not depend on the cap, so per-target best
        # similarity is prefix-monotone and the success rate cannot drop.
        # The bar sits at 0.80: coordinate proposals converge to local optima
        # around 0.75-0.87 on this world, well short of the white-box 0.95+,
        # matching the expectation that black-box trails white-box.
        from embinvert.models import WorldConfig, make_synthetic_world
        from embinvert.pool import build_pool

        world = make_synthetic_world(
            WorldConfig(embedder_dims=(128, 128), images_per_identity=6), 7)
        pool = build_pool(world.generator, world.detector, V=100,
                          tau_K=0.999, tau_D=0.999, build_seed=7)
        f0 = world.embedders[0]
        bar = 0.80
        targets = []
        for idx in range(50):
            k = idx % 20
            j = (idx // 20) % 6
            targets.append(TargetSpec(
                f0.embed(world.identities[k].images[j]), f0.model_id))
        rates = []
        for q_max in (2000, 5000, 10_000, 20_000):
            settings = AttackSettings(
                mode=MODE_BLACKBOX, budget=PerturbationBudget("l2", 35.0),
                tau_C=bar, n_top=3, q_max=q_max)
            hits = sum(run_attack(spec, pool, settings, world).final_similarity >= bar
                       for spec in targets)
            rates.append(hits / len(targets))
        assert rates == sorted(rates), f"success rates decreased: {rates}"
        assert rates[-1] > 0, "no black-box successes even at the largest budget"

    def test_blackbox_budget_must_cover_selection(self, desk_world, desk_pool):
        settings = AttackSettings(
            mode=MODE_BLACKBOX,
            budget=PerturbationBudget("l2", 35.0),
            tau_C=0.95,
            n_top=3,
            q_max=100,  # exactly V; nothing left for refinement
        )
        with pytest.raises(BudgetTooSmall):
            run_attack(make_spec(desk_world), desk_pool, settings, desk_world)

    def test_pool_embedded_once_per_handle_across_attacks(self, desk_world,
                                                          desk_pool):
        backend = Backend()
        backend.generator = desk_world.generator
        backend.embedders = tuple(CountingEmbedder(e) for e in desk_world.embedders)
        pool = dataclasses.replace(desk_pool)
        settings = AttackSettings(mode=MODE_WHITEBOX,
                                  budget=PerturbationBudget("l2", 35.0),
                                  tau_C=0.9, n_top=3, t_max=5)
        ids = desk_world.identities
        for k in range(50):
            f = desk_world.embedders[k % len(desk_world.embedders)]
            rec = ids[k % len(ids)]
            spec = TargetSpec(target_embedding=f.embed(rec.images[k % len(rec.images)]),
                              target_model_id=f.model_id)
            result = run_attack(spec, pool, settings, backend)
            assert result.ledger.q_topn == pool.V
        assert [e.batch_calls for e in backend.embedders] == [1] * len(backend.embedders)
        assert all(e.embed_calls == 0 for e in backend.embedders)

    @pytest.mark.parametrize("q_max", [50, 100, 102])
    def test_budget_rejected_before_any_embedding(self, desk_world, desk_pool,
                                                  monkeypatch, q_max):
        # V = 100 and N = 3: below V, exactly V, and V plus fewer than N.
        # A fresh copy of the pool has no cached embeddings, so selection
        # would have to reach the trapped embedder.
        cold_pool = dataclasses.replace(desk_pool)
        embedder = desk_world.embedders[0]
        spec = make_spec(desk_world)

        def trap(*args, **kwargs):
            raise AssertionError("selection ran before the budget check")

        monkeypatch.setattr(type(embedder), "embed_batch", trap)
        monkeypatch.setattr(type(embedder), "embed", trap)
        settings = AttackSettings(mode=MODE_BLACKBOX,
                                  budget=PerturbationBudget("l2", 35.0),
                                  tau_C=0.95, n_top=3, q_max=q_max)
        with pytest.raises(BudgetTooSmall):
            run_attack(spec, cold_pool, settings, desk_world)
