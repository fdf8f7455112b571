"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest -v -s tests/test_acceptance.py` to see one PASS line per
criterion.  Criteria needing cross-model transfer use 128-dim embedders
(embedding dimension >= latent dimension makes high target-model similarity
force identity alignment; at the 32-dim default the preimage of a target
embedding is a ~33-dim family and nothing transfers, see notes in the
repo's test suite).
"""
import json
import time

import numpy as np
import pytest
from scipy.stats import binom, binomtest

import embinvert as ei
from embinvert.cli import main as cli_main
from embinvert.config import RunConfig, emit_config
from embinvert.errors import ChecksumMismatch
from embinvert.evaluation import (
    CalibrationSet,
    EvaluationCase,
    compute_eer_threshold,
    cross_model_report,
)
from embinvert.models import AttackSession, QueryLedger, WorldConfig, make_synthetic_world
from embinvert.pipeline import (
    MODE_BLACKBOX,
    MODE_WHITEBOX,
    AttackSettings,
    compute_tmax,
    run_attack,
)
from embinvert.pool import build_pool, load_pool, save_pool
from embinvert.refine import PerturbationBudget, refine_blackbox, refine_whitebox

from oracle_loss import loss_eval, loss_gradient
from oracle_normality import oracle_k2, oracle_kurt_z, oracle_skew_z
from test_evaluation import TOY_TAU_F, eer_sweep_oracle, toy_cases
from test_models import NormalisingEmbedder
from test_refine import RecordingSession

from conftest import forward, world_tau_F

SEED = 7


def report(criterion, message):
    print(f"\nACCEPTANCE PASS criterion {criterion}: {message}")


@pytest.fixture(scope="module")
def transfer_world():
    return make_synthetic_world(
        WorldConfig(embedder_dims=(128, 128), images_per_identity=6), SEED)


@pytest.fixture(scope="module")
def transfer_pool(transfer_world):
    return build_pool(transfer_world.generator, transfer_world.detector,
                      V=100, tau_K=0.999, tau_D=0.999, build_seed=SEED)


def world_targets(world, count):
    f0 = world.embedders[0]
    per = world.config.images_per_identity
    out = []
    for idx in range(count):
        k = idx % world.config.n_identities
        j = (idx // world.config.n_identities) % per
        rec = world.identities[k]
        out.append((k, j, ei.TargetSpec(forward(f0, rec.images[j]), f0.model_id)))
    return out


def type2_rates(world, targets, reconstructions, model, tau_F):
    """Each target's Type II rate for its reconstruction under ``model``
    alone, from one ``cross_model_report`` call."""
    cases = []
    for t, ((k, j, spec), reconstruction) in enumerate(zip(targets, reconstructions)):
        images = world.identities[k].images
        cases.append(EvaluationCase(
            target_id=f"t{t}", target_model_id=spec.target_model_id,
            reconstruction=reconstruction, target_image=images[j],
            alt_images=tuple(img for jj, img in enumerate(images) if jj != j),
            queries=0, wall_time=0.0))
    report = cross_model_report(cases, [model], {model.model_id: tau_F})
    return np.array([row.type2_rate for row in report.rows])


def test_criterion_01_k2_oracle_equivalence():
    started = time.perf_counter()
    cases = []
    rng_seed = 1000
    for dist in ("normal", "exponential", "uniform", "outlier"):
        cases.append((dist, 196608, rng_seed)); rng_seed += 1
    for dist in ("normal", "exponential", "uniform", "outlier"):
        for _ in range(8):
            cases.append((dist, 4096, rng_seed)); rng_seed += 1
    for dist in ("normal", "exponential", "uniform", "outlier"):
        for _ in range(16):
            cases.append((dist, 64, rng_seed)); rng_seed += 1
    assert len(cases) == 100

    checked = 0
    for dist, n, seed in cases:
        rng = np.random.default_rng(seed)
        if dist == "normal":
            sample = rng.standard_normal(n)
        elif dist == "exponential":
            sample = rng.exponential(1.0, n)
        elif dist == "uniform":
            sample = rng.uniform(-1.0, 1.0, n)
        else:
            sample = rng.standard_normal(n)
            sample[0] = 50.0
        res = ei.k2_test(sample)
        assert res.z_skew == pytest.approx(oracle_skew_z(sample), abs=1e-9)
        assert res.z_kurt == pytest.approx(oracle_kurt_z(sample), abs=1e-9)
        _, _, k2, p = oracle_k2(sample)
        assert res.k2 == pytest.approx(k2, abs=1e-9 * max(1.0, abs(k2)))
        assert res.p_value == pytest.approx(p, abs=1e-9)
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"criterion 1 runtime {elapsed:.1f}s exceeds 30s"
    report(1, f"{checked} samples match the extended-precision oracle to 1e-9 "
              f"in z and p ({elapsed:.1f}s)")


def test_criterion_02_null_uniformity():
    started = time.perf_counter()
    trials = 10_000
    n = 4096
    pvals = np.empty(trials)
    for i in range(trials):
        pvals[i] = ei.k2_test(
            np.random.default_rng(20_000 + i).standard_normal(n)).p_value
    pvals.sort()
    grid_hi = np.arange(1, trials + 1) / trials
    grid_lo = np.arange(0, trials) / trials
    ks = float(np.max(np.maximum(grid_hi - pvals, pvals - grid_lo)))
    assert ks < 0.02, f"KS distance from uniform {ks:.4f} >= 0.02"

    accepted = int(np.sum(pvals >= 0.999))
    lo = int(binom.ppf(0.005, trials, 0.001))
    hi = int(binom.ppf(0.995, trials, 0.001))
    assert lo <= accepted <= hi, \
        f"acceptance count {accepted} outside exact binomial 99% interval [{lo}, {hi}]"
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"criterion 2 runtime {elapsed:.1f}s exceeds 2min"
    report(2, f"KS = {ks:.4f} < 0.02; acceptance {accepted}/{trials} inside "
              f"[{lo}, {hi}] at tau_K = 0.999 ({elapsed:.1f}s)")


def test_criterion_03_budget_feasibility(transfer_world, transfer_pool):
    world = transfer_world
    f0 = world.embedders[0]
    budgets = {"l2": 5.0, "linf": 0.4}
    violations = 0
    runs = 0
    for norm, eps in budgets.items():
        budget = PerturbationBudget(norm, eps)
        for mode in (MODE_WHITEBOX, MODE_BLACKBOX):
            for t in range(50):
                k, j, spec = world_targets(world, 50)[t]
                x = transfer_pool.entries[t % 100].latent
                session = RecordingSession(AttackSession(
                    world.generator, f0, QueryLedger(),
                    allow_gradient=(mode == MODE_WHITEBOX)))
                if mode == MODE_WHITEBOX:
                    refine_whitebox(x, spec.target_embedding, session, budget,
                                    t_max=30, tau_C=0.98)
                else:
                    refine_blackbox(x, spec.target_embedding, session, budget,
                                    query_cap=120, tau_C=0.98)
                for lat in session.latents:
                    delta = lat - x.values
                    size = (np.linalg.norm(delta) if norm == "l2"
                            else float(np.max(np.abs(delta))))
                    if size > eps * (1 + 1e-6):
                        violations += 1
                runs += 1
    assert runs == 200
    assert violations == 0
    report(3, f"0 feasibility violations across {runs} refinements "
              f"(both norms, both modes)")


def test_criterion_04_query_ledger_exactness(transfer_world, transfer_pool):
    assert compute_tmax(20_000, 1000, 3) == 6333
    world = transfer_world
    targets = world_targets(world, 100)
    v = len(transfer_pool.entries)
    checked = 0
    for i, (k, j, spec) in enumerate(targets):
        q_max = (400, 1000, 2000)[i % 3]
        settings = AttackSettings(
            mode=MODE_BLACKBOX, budget=PerturbationBudget("l2", 5.0),
            tau_C=0.95, n_top=3, q_max=q_max)
        result = run_attack(spec, transfer_pool, settings, world)
        t_max = compute_tmax(q_max, v, 3)
        assert result.ledger.q_topn == v
        assert result.ledger.q_adv == sum(
            t.queries_used for t in result.candidate_traces)
        assert result.ledger.q_adv <= 3 * t_max
        assert result.ledger.total <= q_max
        for trace in result.candidate_traces:
            assert trace.queries_used <= t_max
            assert trace.iterations_used <= t_max
        checked += 1
    report(4, f"{checked} black-box runs: q_topn = V = {v}, "
              f"q_adv = sum(queries_used) <= N*t_max, total <= Q_max; "
              f"spot t_max(20000,1000,3) = 6333")


def test_criterion_05_early_stop_and_fallback(transfer_world, transfer_pool):
    world = transfer_world
    targets = world_targets(world, 50)
    audited = 0
    overtakes = 0
    for phase, (eps, tau_c, t_max) in enumerate(
            ((5.0, 0.98, 60), (35.0, 0.95, 200))):
        settings = AttackSettings(
            mode=MODE_WHITEBOX, budget=PerturbationBudget("l2", eps),
            tau_C=tau_c, n_top=3, t_max=t_max)
        for k, j, spec in targets:
            result = run_attack(spec, transfer_pool, settings, world)
            # (a) no iterations after the confidence bar is reached
            for trace in result.candidate_traces:
                assert all(s < tau_c for s in trace.trace[:-1])
                if trace.stop_reason == "confidence_reached" and trace.trace:
                    assert trace.trace[-1] >= tau_c
                assert len(trace.trace) == trace.iterations_used
            # (b) candidate k+1 refined only because 1..k failed
            for trace in result.candidate_traces[:-1]:
                assert trace.stop_reason == "budget_exhausted"
                assert trace.final_similarity < tau_c
            # (c) returned candidate is the argmax of final similarities
            finals = [t.final_similarity for t in result.candidate_traces]
            best = max(finals)
            assert result.final_similarity == best
            first_best = finals.index(best)
            assert result.chosen_rank == result.candidates[first_best].rank
            if result.chosen_rank > 1:
                overtakes += 1
            audited += 1
    assert audited == 100
    assert overtakes >= 1, "no rank-overtaking case appeared in the cohort"
    report(5, f"{audited} attacks audited: early-stop exact, rank order "
              f"sequential, argmax fallback; {overtakes} rank-overtake cases "
              f"observed")


def worst_gradient_error(d_lat, d_emb, gradient, loss, h=1e-4):
    """The largest relative error of ``gradient(x, target)`` against central
    differences of ``loss`` over criterion 6's 20 seeded points."""
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(20):
        x = rng.standard_normal(d_lat)
        raw = rng.standard_normal(d_emb)
        target = ei.EmbeddingVector(raw / np.linalg.norm(raw))
        grad = gradient(x, target)
        fd = np.empty_like(grad)
        for i in range(d_lat):
            up, down = x.copy(), x.copy()
            up[i] += h
            down[i] -= h
            fd[i] = (loss(up, target) - loss(down, target)) / (2 * h)
        worst = max(worst, np.linalg.norm(grad - fd) / np.linalg.norm(fd))
    return worst


def test_criterion_06_gradient_correctness(transfer_world):
    # The oracle, then the production gradient of a session over the unit
    # synthetic embedder and over an adapter-shaped one whose embed_batch
    # features are not unit-norm.
    g, f = transfer_world.generator, transfer_world.embedders[0]
    cases = {"oracle": (lambda x, t: loss_gradient(g, f, ei.LatentCode(x), t),
                        lambda x, t: loss_eval(g, f, ei.LatentCode(x), t))}
    for name, embedder in (("synthetic", f), ("adapter-shaped", NormalisingEmbedder(f))):
        session = AttackSession(g, embedder, QueryLedger(), allow_gradient=True)
        cases[name] = (lambda x, t, s=session: s.value_and_grad(x, t)[1](),
                       session.loss)
    for name, (gradient, loss) in cases.items():
        worst = worst_gradient_error(g.d_lat, f.d_emb, gradient, loss)
        assert worst < 1e-4, f"{name}: worst relative gradient error {worst:.2e}"
        report(6, f"{name}, 20 seeded points: worst relative gradient error "
                  f"{worst:.2e} < 1e-4")


def test_criterion_07_end_to_end_desk_efficacy():
    started = time.perf_counter()
    world = make_synthetic_world(
        WorldConfig(embedder_dims=(128, 128)), SEED)  # 20 ids, d_lat 64, J = 3
    pool = build_pool(world.generator, world.detector, V=100,
                      tau_K=0.999, tau_D=0.999, build_seed=SEED)
    f0, f1 = world.embedders
    tau_F1 = world_tau_F(world)[f1.model_id]
    settings = AttackSettings(
        mode=MODE_WHITEBOX, budget=PerturbationBudget("l2", 35.0),
        tau_C=0.95, n_top=3, t_max=200)

    targets = world_targets(world, 50)
    reached = 0
    initials, finals = [], []
    reconstructions, baseline_images = [], []
    baseline_rng = np.random.default_rng(777)
    for k, j, spec in targets:
        result = run_attack(spec, pool, settings, world)
        reached += result.final_similarity >= 0.95
        initials.append(result.candidates[0].initial_similarity)
        finals.append(result.final_similarity)
        reconstructions.append(forward(world.generator, result.refined_latent))
        random_entry = pool.entries[baseline_rng.integers(0, len(pool.entries))]
        baseline_images.append(random_entry.image)
    attack_t2 = type2_rates(world, targets, reconstructions, f1, tau_F1)
    baseline_t2 = type2_rates(world, targets, baseline_images, f1, tau_F1)

    rate = reached / len(targets)
    assert rate >= 0.90, f"only {reached}/50 targets reached tau_C"
    improvement = float(np.median(finals) - np.median(initials))
    assert improvement >= 0.3, f"median improvement {improvement:.3f} < 0.3"
    atk, base = float(np.mean(attack_t2)), float(np.mean(baseline_t2))
    assert atk >= 5 * base and atk > base, \
        f"cross-model Type II {atk:.4f} not 5x baseline {base:.4f}"
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"criterion 7 runtime {elapsed:.1f}s exceeds 5min"
    report(7, f"{reached}/50 targets reached tau_C = 0.95; median improvement "
              f"{improvement:.3f}; cross-model Type II {atk:.3f} vs random "
              f"baseline {base:.3f} ({elapsed:.1f}s)")


def _sign_test_greater(diffs):
    wins = int(np.sum(diffs > 0))
    losses = int(np.sum(diffs < 0))
    if wins + losses == 0:
        return 1.0
    return binomtest(wins, wins + losses, alternative="greater").pvalue


def test_criterion_08_ablation_trends(transfer_world, transfer_pool):
    world = transfer_world
    f0, f1 = world.embedders
    tau_F1 = world_tau_F(world)[f1.model_id]
    targets = world_targets(world, 50)

    def run_sweep(n_top, tau_c):
        settings = AttackSettings(
            mode=MODE_WHITEBOX, budget=PerturbationBudget("l2", 5.0),
            tau_C=tau_c, n_top=n_top, t_max=60)
        reconstructions, queries = [], []
        for k, j, spec in targets:
            result = run_attack(spec, transfer_pool, settings, world)
            reconstructions.append(forward(world.generator, result.refined_latent))
            queries.append(result.ledger.total)
        return (type2_rates(world, targets, reconstructions, f1, tau_F1),
                np.array(queries))

    # Top-N sweep: cross-model Type II must not decrease with N.
    t2_by_n = {}
    for n in (1, 3, 5):
        t2_by_n[n], _ = run_sweep(n, tau_c=0.98)
    means_n = [t2_by_n[n].mean() for n in (1, 3, 5)]
    assert means_n[0] <= means_n[1] <= means_n[2], f"N trend broken: {means_n}"
    p_n = _sign_test_greater(t2_by_n[5] - t2_by_n[1])
    assert p_n < 0.05, f"N-trend sign test p = {p_n:.4f}"

    # tau_C sweep: queries must strictly increase with the confidence bar.
    q_by_tc = {}
    for tau_c in (0.7, 0.9, 0.95):
        _, q_by_tc[tau_c] = run_sweep(3, tau_c=tau_c)
    means_q = [q_by_tc[t].mean() for t in (0.7, 0.9, 0.95)]
    assert means_q[0] < means_q[1] < means_q[2], f"query trend broken: {means_q}"
    p_q = _sign_test_greater(q_by_tc[0.95] - q_by_tc[0.7])
    assert p_q < 0.05, f"query-trend sign test p = {p_q:.4f}"

    report(8, f"Type II over N in (1,3,5): {means_n[0]:.3f} <= {means_n[1]:.3f} "
              f"<= {means_n[2]:.3f} (sign test p = {p_n:.1e}); queries over "
              f"tau_C in (0.7,0.9,0.95): {means_q[0]:.0f} < {means_q[1]:.0f} "
              f"< {means_q[2]:.0f} (p = {p_q:.1e})")


def test_criterion_09_evaluation_metric_oracles():
    # EER equals the brute-force sweep on 20 seeded calibration sets.
    rng = np.random.default_rng(909)
    for _ in range(20):
        genuine = np.clip(rng.normal(0.6, 0.2, int(rng.integers(5, 60))), -1, 1)
        impostor = np.clip(rng.normal(0.25, 0.2, int(rng.integers(5, 60))), -1, 1)
        cal = CalibrationSet(tuple(genuine), tuple(impostor))
        assert compute_eer_threshold(cal) == eer_sweep_oracle(
            list(genuine), list(impostor))

    # Type I and Type II on a 3-identity toy with J = 2: Type I hits
    # (yes, no, yes) -> 2/3 exactly; Type II hand count 3 hits of 6 -> 1/2.
    cases, toy = toy_cases([0.9, 0.1, 0.8], [
        [0.8, 0.2],   # 1 hit
        [0.6, 0.7],   # 2 hits
        [0.1, 0.3],   # 0 hits
    ])
    rep = cross_model_report(cases, [toy], TOY_TAU_F)
    assert [r.type1_hit for r in rep.rows] == [True, False, True]
    assert [r.type2_rate for r in rep.rows] == [0.5, 1.0, 0.0]
    assert rep.per_model[0].type1_accuracy == rep.cross_model_type1 == 2 / 3
    assert rep.per_model[0].type2_accuracy == rep.cross_model_type2 == 0.5

    # Cross-model averages recompute from rows to 1e-12.
    world = make_synthetic_world(WorldConfig(n_identities=4), 31)
    cases = []
    for t, rec in enumerate(world.identities[:3]):
        cases.append(EvaluationCase(
            target_id=f"t{t}", target_model_id=world.embedders[0].model_id,
            reconstruction=rec.images[1], target_image=rec.images[0],
            alt_images=tuple(rec.images[2:]), queries=10, wall_time=0.1))
    rep = cross_model_report(cases, world.embedders, world_tau_F(world))
    for avg in rep.per_model:
        rows = [r for r in rep.rows if r.eval_model_id == avg.eval_model_id]
        assert abs(avg.type1_accuracy - sum(r.type1_hit for r in rows) / len(rows)) < 1e-12
        assert abs(avg.type2_accuracy - sum(r.type2_rate for r in rows) / len(rows)) < 1e-12
        assert abs(avg.mean_similarity - sum(r.similarity for r in rows) / len(rows)) < 1e-12
    assert abs(rep.cross_model_type2
               - sum(m.type2_accuracy for m in rep.per_model) / len(rep.per_model)) < 1e-12
    report(9, "EER equals sweep oracle on 20 sets; Type I = 2/3 and "
              "Type II = 1/2 on hand-counted toys; averages recompute to 1e-12")


def test_criterion_10_determinism_and_persistence(tmp_path):
    params = dict(
        d_lat=64, n_identities=6, volume=20, tau_k=0.9, tau_d=0.9,
        top_n=3, t_max=60, tau_c=0.95, num_targets=4, seed=SEED,
        pool_path=str(tmp_path / "pool.lpool"),
        thresholds_path=str(tmp_path / "thresholds.json"),
        results_path=str(tmp_path / "results.ndjson"),
        report_path=str(tmp_path / "report.csv"),
    )
    cfg = tmp_path / "run.cfg"
    cfg.write_text(emit_config(RunConfig(**params)))

    # identical (config, seed) -> identical pool files
    assert cli_main(["build-pool", "--config", str(cfg)]) == 0
    pool_bytes = (tmp_path / "pool.lpool").read_bytes()
    assert cli_main(["build-pool", "--config", str(cfg)]) == 0
    assert (tmp_path / "pool.lpool").read_bytes() == pool_bytes

    # identical results modulo wall_time
    assert cli_main(["attack", "--config", str(cfg)]) == 0
    def read_stripped():
        out = []
        for line in (tmp_path / "results.ndjson").read_text().splitlines():
            rec = json.loads(line)
            rec.pop("wall_time", None)
            out.append(rec)
        return out
    first = read_stripped()
    assert cli_main(["attack", "--config", str(cfg)]) == 0
    assert read_stripped() == first

    # identical reports modulo the wall_time column
    assert cli_main(["report", "--config", str(cfg)]) == 0
    def report_stripped():
        lines = []
        for line in (tmp_path / "report.csv").read_text().splitlines():
            cols = line.split(",")
            if len(cols) == 8 and cols[0] != "target_id":
                cols[7] = ""
            lines.append(",".join(cols))
        return lines
    rep_first = report_stripped()
    assert cli_main(["report", "--config", str(cfg)]) == 0
    assert report_stripped() == rep_first

    # pool round-trip restores every field
    pool = load_pool(tmp_path / "pool.lpool")
    copy_path = tmp_path / "copy.lpool"
    save_pool(pool, copy_path)
    assert load_pool(copy_path) == pool
    assert copy_path.read_bytes() == pool_bytes

    # corrupted files are rejected by checksum
    corrupted = bytearray(pool_bytes)
    corrupted[len(corrupted) // 3] ^= 0x5A
    bad_path = tmp_path / "bad.lpool"
    bad_path.write_bytes(bytes(corrupted))
    with pytest.raises(ChecksumMismatch):
        load_pool(bad_path)
    with pytest.raises(ChecksumMismatch):
        truncated = tmp_path / "short.lpool"
        truncated.write_bytes(pool_bytes[: len(pool_bytes) // 2])
        load_pool(truncated)

    report(10, "pool files byte-identical across rebuilds; results/reports "
               "identical modulo wall time; round-trip exact; corruption "
               "rejected by checksum")
