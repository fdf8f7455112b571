import dataclasses
from functools import partial

import numpy as np
import pytest

from embinvert.config import RunConfig
from embinvert.core import TargetSpec
from embinvert.errors import (
    AllCandidatesFailed,
    BudgetTooSmall,
    ConfigInvalid,
    NonFiniteLoss,
)
from embinvert.models import AttackSession, Backend, QueryLedger
from embinvert.pipeline import (
    AttackSettings,
    MODE_BLACKBOX,
    MODE_WHITEBOX,
    compute_tmax,
    ranked_adversary,
    run_attack,
)
from embinvert.ranking import RankedCandidate, rank_candidates
from embinvert.pool import build_pool
from embinvert.refine import (
    STOP_BUDGET,
    STOP_CONFIDENCE,
    _LINE_SEARCH_STEPS,
    PerturbationBudget,
    RefineResult,
    project,
    refine_blackbox,
    refine_whitebox,
)
from conftest import forward
from test_evaluation import CountingEmbedder
from test_models import PlainEmbedder, PlainGenerator


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
    return forward(world.embedders[0], world.identities[identity].images[image])


def whitebox_adversary(pool, ranked, target, session, budget, tau_C, t_max):
    """ranked_adversary with the white-box refiner bound as run_attack binds it."""
    refine = partial(refine_whitebox, target=target, session=session,
                     budget=budget, t_max=t_max, tau_C=tau_C)
    return ranked_adversary(pool, ranked, refine, session.ledger)


class TestRankedAdversary:
    def test_rank_one_already_confident_stops_immediately(self, desk_world, desk_pool):
        # A target built from a pool entry itself: rank 1 scores 1.0 outright.
        f = desk_world.embedders[0]
        target = forward(f, desk_pool.entries[5].image)
        session = _session(desk_world, MODE_WHITEBOX)
        ranked = rank_candidates(desk_pool, target, f, 3, session.ledger)
        result = whitebox_adversary(desk_pool, ranked, target, session,
                                    PerturbationBudget("l2", 35.0), tau_C=0.99,
                                    t_max=50)
        assert result.chosen_rank == 1
        assert len(result.candidate_traces) == 1
        assert result.candidate_traces[0].iterations_used == 0
        assert result.final_similarity >= 0.99

    def test_fallback_refines_all_and_takes_argmax(self, desk_world, desk_pool):
        f = desk_world.embedders[0]
        target = _target(desk_world, identity=6)
        session = _session(desk_world, MODE_WHITEBOX)
        ranked = rank_candidates(desk_pool, target, f, 3, session.ledger)
        result = whitebox_adversary(desk_pool, ranked, target, session,
                                    PerturbationBudget("l2", 35.0), tau_C=0.999,
                                    t_max=2)
        assert len(result.candidate_traces) == 3
        finals = [r.final_similarity for r in result.candidate_traces]
        assert result.final_similarity == max(finals)
        assert result.chosen_rank == result.candidates[int(np.argmax(finals))].rank

    def test_pinned_rank_overtake_case(self, desk_world, desk_pool):
        # Found by seed search: at eps 2.5 the rank-2 start refines past rank 1.
        f = desk_world.embedders[0]
        target = forward(f, desk_world.identities[14].images[3])
        session = _session(desk_world, MODE_WHITEBOX)
        ranked = rank_candidates(desk_pool, target, f, 3, session.ledger)
        result = whitebox_adversary(desk_pool, ranked, target, session,
                                    PerturbationBudget("l2", 2.5), tau_C=0.95,
                                    t_max=60)
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
            result = whitebox_adversary(desk_pool, ranked, target, session,
                                        PerturbationBudget("l2", 35.0), tau_C=0.95,
                                        t_max=100)
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
            whitebox_adversary(desk_pool, ranked, target, NaNSession(),
                               PerturbationBudget("l2", 35.0), tau_C=0.95,
                               t_max=5)

    def test_empty_candidate_list_rejected(self, desk_pool):
        def refine(x_G):
            raise AssertionError("refined with no candidates")

        with pytest.raises(ConfigInvalid, match="no candidates"):
            ranked_adversary(desk_pool, [], refine, QueryLedger())

    def test_policy_over_a_scripted_refiner(self, desk_pool):
        # Rank 2 aborts on a non-finite objective and is skipped; ranks 1
        # and 3 tie below the bar, so the lower rank wins; rank 5, past a
        # confident rank 4, is never refined.
        finals = {1: 0.5, 2: None, 3: 0.5, 4: 0.97, 5: 1.0}
        ranked = [RankedCandidate(rank=r, pool_index=10 * r,
                                  initial_similarity=0.0) for r in finals]
        refined = []

        def refine(x_G):
            rank = next(c.rank for c in ranked
                        if desk_pool.entries[c.pool_index].latent is x_G)
            refined.append(rank)
            if finals[rank] is None:
                raise NonFiniteLoss("nan", trace=[])
            stop = STOP_CONFIDENCE if finals[rank] >= 0.95 else STOP_BUDGET
            return RefineResult(x_G, 0.0, finals[rank], 1, stop, (finals[rank],))

        ledger = QueryLedger()
        result = ranked_adversary(desk_pool, ranked, refine, ledger)
        assert refined == [1, 2, 3, 4]
        assert [c.rank for c in result.candidates] == [1, 3, 4]
        assert result.chosen_rank == 4 and result.final_similarity == 0.97
        assert result.ledger is ledger
        finals[4] = 0.5
        result = ranked_adversary(desk_pool, ranked, refine, ledger)
        assert [c.rank for c in result.candidates] == [1, 3, 4, 5]
        assert result.chosen_rank == 5
        finals[5] = 0.5
        result = ranked_adversary(desk_pool, ranked, refine, ledger)
        assert result.chosen_rank == 1
        assert result.refined_latent is desk_pool.entries[10].latent


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
    """RunConfig and AttackSettings apply one rule, and compute_tmax applies
    its black-box part.  run_attack takes the settings as checked, and
    ranked_adversary sees only the candidates and the bound refiner."""

    @staticmethod
    def entry_points():
        def run_config(mode, t_max, q_max, top_n):
            RunConfig(mode=mode, t_max=t_max, q_max=q_max, top_n=top_n).validate()

        def settings(mode, t_max, q_max, top_n):
            AttackSettings(mode=mode, budget=PerturbationBudget("l2", 1.0),
                           tau_C=0.9, n_top=top_n, t_max=t_max, q_max=q_max)

        return run_config, settings

    @pytest.mark.parametrize("row", GOOD_BUDGETS)
    def test_good_rows_accepted_everywhere(self, row):
        for accept in self.entry_points():
            accept(*row)

    @pytest.mark.parametrize("row", BAD_BUDGETS)
    def test_bad_rows_rejected_everywhere_with_one_message(self, row):
        messages = []
        for reject in self.entry_points():
            with pytest.raises(ConfigInvalid) as excinfo:
                reject(*row)
            messages.append(str(excinfo.value))
        assert len(set(messages)) == 1, messages

    @pytest.mark.parametrize("row", [r for r in BAD_BUDGETS
                                     if r[0] == MODE_BLACKBOX and r[1] is None])
    def test_compute_tmax_rejects_bad_blackbox_rows_with_the_same_message(
            self, desk_pool, row):
        _mode, _t_max, q_max, top_n = row
        messages = []
        for reject in self.entry_points():
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
        target_embedding=forward(f, world.identities[identity].images[image]),
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
        g = desk_world.generator
        assert forward(g, a.refined_latent) == forward(g, b.refined_latent)
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
        # End-to-end black-box runs over growing query budgets.  The
        # refiner's path (line search, then greedy search) does not depend
        # on the cap, so per-target best similarity is prefix-monotone and
        # the success rate cannot drop.  The bar sits at 0.90, where about
        # half the targets succeed and the rate still rises with the budget
        # (0.52, 0.64, 0.70 and 0.70); at 0.80 every target succeeds at
        # every budget, and equal rates would show nothing.
        from embinvert.models import WorldConfig, make_synthetic_world

        world = make_synthetic_world(
            WorldConfig(embedder_dims=(128, 128), images_per_identity=6), 7)
        pool = build_pool(world.generator, world.detector, V=100,
                          tau_K=0.999, tau_D=0.999, build_seed=7)
        f0 = world.embedders[0]
        bar = 0.90
        targets = []
        for idx in range(50):
            k = idx % 20
            j = (idx // 20) % 6
            targets.append(TargetSpec(
                forward(f0, world.identities[k].images[j]), f0.model_id))
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
        assert len(set(rates)) > 1, f"equal rates at every budget: {rates}"

    def test_blackbox_run_is_pinned(self, desk_world, desk_pool):
        # Identity 0's image 1 at L2 35, tau_C 0.9, N 3 and q_max 1000.  The
        # chosen candidate's trace opens with the line search, replayed here
        # along the slope of the fit to the V selection similarities.
        # Pinned: (chosen rank, q_topn, q_adv, line-search length,
        # float.hex(final similarity)).
        spec = make_spec(desk_world, identity=0, image=1)
        target = spec.target_embedding
        budget = PerturbationBudget("l2", 35.0)
        settings = AttackSettings(mode=MODE_BLACKBOX, budget=budget, tau_C=0.9,
                                  n_top=3, q_max=1000)
        result = run_attack(spec, desk_pool, settings, desk_world)

        sims = np.empty(desk_pool.V)
        ranked = rank_candidates(desk_pool, target, desk_world.embedders[0], 3,
                                 out=sims)
        g = desk_pool.similarity_slope(sims)
        unit = g / np.linalg.norm(g)
        chosen = result.candidate_traces[result.chosen_rank - 1]
        x = desk_pool.entries[ranked[result.chosen_rank - 1].pool_index].latent
        session = _session(desk_world, MODE_BLACKBOX)
        opening, best = [], chosen.initial_similarity
        for step in _LINE_SEARCH_STEPS:
            s = session.loss(x.values + project(step * unit, budget), target)
            opening.append(s)
            if s <= best or s >= settings.tau_C:
                break
            best = s
        assert chosen.trace[:len(opening)] == tuple(opening)
        assert (result.chosen_rank, result.ledger.q_topn, result.ledger.q_adv,
                len(opening), float.hex(result.final_similarity)) == (
            1, 100, 36, 6, "0x1.ccf409f436f9fp-1")

    @pytest.mark.filterwarnings("error")
    def test_one_entry_pool_runs_the_plain_search(self, desk_world):
        # One latent has no spread to fit a slope to: the slope is zero and
        # the refinement is the search without an opening.
        pool = build_pool(desk_world.generator, desk_world.detector, V=1,
                          tau_K=0.5, tau_D=0.5, build_seed=3)
        assert np.array_equal(pool.similarity_slope(np.array([0.25])),
                              np.zeros(pool.d_lat))
        spec = make_spec(desk_world, identity=4)
        settings = AttackSettings(mode=MODE_BLACKBOX,
                                  budget=PerturbationBudget("l2", 35.0),
                                  tau_C=0.9, n_top=1, q_max=301)
        result = run_attack(spec, pool, settings, desk_world)
        plain = refine_blackbox(pool.entries[0].latent, spec.target_embedding,
                                _session(desk_world, MODE_BLACKBOX),
                                settings.budget, query_cap=300, tau_C=0.9)
        assert result.candidate_traces == (plain,)
        assert np.isfinite(plain.trace).all()
        assert (result.ledger.q_topn, result.ledger.q_adv) == (1, plain.queries_used)

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
        q_adv = 0
        for k in range(50):
            f = desk_world.embedders[k % len(desk_world.embedders)]
            rec = ids[k % len(ids)]
            spec = TargetSpec(target_embedding=forward(f, rec.images[k % len(rec.images)]),
                              target_model_id=f.model_id)
            result = run_attack(spec, pool, settings, backend)
            assert result.ledger.q_topn == pool.V
            q_adv += result.ledger.q_adv
        assert [e.batch_calls for e in backend.embedders] == [1] * len(backend.embedders)
        # Refinement makes one embed_vjp call per charged query; selection
        # never embeds pool images one at a time.
        assert sum(e.vjp_calls for e in backend.embedders) == q_adv

    @pytest.mark.parametrize("bad", ["generator", "embedder"])
    def test_forward_only_adapter_output_is_checked(self, desk_world, desk_pool, bad):
        # A forward-only generator with a pixel out of range, or embedder
        # with a NaN row in refinement, raises ConfigInvalid naming it.
        class OutOfRangeGenerator(PlainGenerator):
            def generate_batch(self, latents):
                images = super().generate_batch(latents)
                images[:, 0, 0, 0] = 1.5
                return images

        class NaNRowEmbedder(PlainEmbedder):
            def embed_batch(self, images):
                rows = super().embed_batch(images)
                if len(images) == 1:
                    rows[0, 0] = np.nan
                return rows

        backend = Backend()
        backend.generator = (OutOfRangeGenerator if bad == "generator"
                             else PlainGenerator)(desk_world.generator)
        backend.embedders = ((NaNRowEmbedder if bad == "embedder" else PlainEmbedder)(
            desk_world.embedders[0]),)
        settings = AttackSettings(mode=MODE_BLACKBOX,
                                  budget=PerturbationBudget("l2", 35.0),
                                  tau_C=0.95, n_top=3, q_max=500)
        with pytest.raises(ConfigInvalid, match=(
                f"generator {desk_world.generator.generator_id!r} returned a pixel"
                if bad == "generator" else
                f"embedder {desk_world.embedders[0].model_id!r} returned a non-finite")):
            run_attack(make_spec(desk_world), dataclasses.replace(desk_pool),
                       settings, backend)

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
        monkeypatch.setattr(type(embedder), "embed_vjp", trap)
        settings = AttackSettings(mode=MODE_BLACKBOX,
                                  budget=PerturbationBudget("l2", 35.0),
                                  tau_C=0.95, n_top=3, q_max=q_max)
        with pytest.raises(BudgetTooSmall):
            run_attack(spec, cold_pool, settings, desk_world)
