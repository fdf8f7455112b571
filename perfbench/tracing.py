"""Span tracing of the embinvert layers, done from outside the package.

The tracer replaces public functions with wrappers in the namespace the
caller looks them up in (``embinvert.cli.run_attack``, not
``embinvert.pipeline.run_attack``), and wraps backend methods on the
``Synthetic*`` classes.  Each call becomes one span: name, start, end,
parent span, the attacked target it belongs to (-1 outside ``run_attack``)
and the benchmark phase (0 = set-up, k = k-th timed cycle).  Spans stay in
memory until ``per_layer`` reduces them.
"""
import time
from collections import defaultdict

# Backend calls: what the ledger would charge for if it charged real work.
BACKEND_SPANS = ("models.generate", "models.embed", "models.detect",
                 "models.generator_vjp", "models.embedder_vjp")


def _attack_extract(result):
    return (result.ledger.q_topn, result.ledger.q_adv, result.chosen_rank)


def _refine_extract(result):
    return (result.iterations_used, result.queries_used)


def _pool_extract(pool):
    return (pool.V, pool.stats.drawn if pool.stats is not None else 0)


def _patch_table(embinvert):
    """(owner, attribute, span name, extract) for every traced call site."""
    cli, pool, pipeline, refine, evaluation, models = (
        embinvert.cli, embinvert.pool, embinvert.pipeline, embinvert.refine,
        embinvert.evaluation, embinvert.models)
    return [
        (pool, "sample_latent", "pool.sample_latent", None),
        (pool, "screen_normality", "pool.screen_normality", None),
        (pool, "screen_face", "pool.screen_face", None),
        (pool, "_batch_normality_pvalues", "pool.prefilter", None),
        (pool, "k2_test", "normality.k2_test", None),
        (cli, "build_pool", "pool.build_pool", _pool_extract),
        (cli, "save_pool", "pool.save_pool", None),
        (cli, "load_pool", "pool.load_pool", None),
        (models.SyntheticGenerator, "generate", "models.generate", None),
        (models.SyntheticGenerator, "vjp", "models.generator_vjp", None),
        (models.SyntheticEmbedder, "embed", "models.embed", None),
        (models.SyntheticEmbedder, "vjp", "models.embedder_vjp", None),
        (models.SyntheticDetector, "detect", "models.detect", None),
        (cli, "make_synthetic_world", "models.make_synthetic_world", None),
        (pipeline, "rank_candidates", "ranking.rank_candidates", None),
        (pipeline, "refine_whitebox", "refine.refine_whitebox", _refine_extract),
        (pipeline, "refine_blackbox", "refine.refine_blackbox", _refine_extract),
        (refine, "project", "refine.project", None),
        (cli, "run_attack", "pipeline.run_attack", _attack_extract),
        # calibrate/report reach evaluation through cli; world building
        # imports it from evaluation at call time.
        (cli, "calibration_set_from_images",
         "evaluation.calibration_set_from_images", None),
        (evaluation, "calibration_set_from_images",
         "evaluation.calibration_set_from_images", None),
        (cli, "compute_eer_threshold", "evaluation.compute_eer_threshold", None),
        (evaluation, "compute_eer_threshold", "evaluation.compute_eer_threshold",
         None),
        (cli, "compute_confidence_threshold",
         "evaluation.compute_confidence_threshold", None),
        (cli, "cross_model_report", "evaluation.cross_model_report", None),
        (cli, "write_results", "records.write_results", None),
        (cli, "read_results", "records.read_results", None),
        (cli, "write_thresholds", "records.write_thresholds", None),
        (cli, "write_report", "records.write_report", None),
        (cli, "load_config", "config.load_config", None),
        (cli, "build_backend", "cli.build_backend", None),
    ]


class Tracer:
    """Records one span per wrapped call; ``install``/``uninstall`` patch."""

    def __init__(self, embinvert):
        self._table = _patch_table(embinvert)
        self._saved = []
        self.missing = []
        self.spans = []          # (name, start, end, parent, target, phase)
        self.extras = defaultdict(list)   # name -> [(phase, extracted)]
        self.phase = 0
        self._stack = []
        self._target = -1
        self._attacks = 0

    def _wrap(self, name, fn, extract):
        tracer = self
        clock = time.perf_counter
        is_attack = name == "pipeline.run_attack"

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            if is_attack:
                tracer._target = tracer._attacks
                tracer._attacks += 1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer._target,
                                     tracer.phase)
                if is_attack:
                    tracer._target = -1
            if extract is not None:
                tracer.extras[name].append((tracer.phase, extract(result)))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for owner, attr, name, extract in self._table:
            original = owner.__dict__.get(attr)
            if original is None:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, extract))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def totals(self, n_cycles):
        """Per-session {name: [calls, seconds, self seconds]}.

        A session is one set-up (phase 0) plus one timed cycle; cycle spans
        are averaged over ``n_cycles``.
        """
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _target, _phase in self.spans:
            if parent >= 0:
                child[parent] += end - start
        # [set-up, cycles] sums, so that counts divide exactly.
        sums = defaultdict(lambda: [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        for i, (name, start, end, _parent, _target, phase) in enumerate(self.spans):
            row = sums[name][phase > 0]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return {name: [s + c / n_cycles for s, c in zip(setup, cycles)]
                for name, (setup, cycles) in sums.items()}

    def attack_backend_calls(self, n_cycles):
        """Backend calls made inside run_attack, per session."""
        return _per_session(
            ((phase, 1) for name, _s, _e, _p, target, phase in self.spans
             if target >= 0 and name in BACKEND_SPANS), n_cycles)

    def extra_sum(self, name, n_cycles, pick):
        return _per_session(((phase, pick(value))
                             for phase, value in self.extras.get(name, ())),
                            n_cycles)

    def extra_count(self, name, n_cycles):
        return self.extra_sum(name, n_cycles, lambda _v: 1)


def _per_session(phase_values, n_cycles):
    setup = cycles = 0
    for phase, value in phase_values:
        if phase == 0:
            setup += value
        else:
            cycles += value
    return setup + cycles / n_cycles


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(tracer, n_cycles, pool_file_bytes):
    """Reduce the spans to the named per-layer metrics: {name: (value, unit)}."""
    t = tracer.totals(n_cycles)

    def calls(name):
        return t.get(name, (0.0,))[0]

    def secs(name):
        return t.get(name, (0.0, 0.0))[1]

    def self_s(name):
        return t.get(name, (0.0, 0.0, 0.0))[2]

    m = {}
    for name in ("pool.sample_latent", "pool.screen_normality", "pool.prefilter",
                 "normality.k2_test", "models.generate", "models.embed",
                 "models.detect", "models.generator_vjp", "models.embedder_vjp",
                 "refine.project", "evaluation.calibration_set_from_images",
                 "evaluation.compute_eer_threshold", "cli.build_backend",
                 "ranking.rank_candidates", "pipeline.run_attack"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.s"] = (secs(name), "s")
    m["pool.screen_face.calls"] = (calls("pool.screen_face"), "count")
    for name in ("pool.build_pool", "pool.save_pool", "pool.load_pool",
                 "models.make_synthetic_world", "refine.refine_whitebox",
                 "refine.refine_blackbox", "evaluation.compute_confidence_threshold",
                 "evaluation.cross_model_report", "records.write_results",
                 "records.read_results", "records.write_thresholds",
                 "records.write_report", "config.load_config"):
        m[f"{name}.s"] = (secs(name), "s")
    for name in ("pool.build_pool", "refine.refine_whitebox",
                 "refine.refine_blackbox", "pipeline.run_attack"):
        m[f"{name}.self_s"] = (self_s(name), "s")

    kept = tracer.extra_sum("pool.build_pool", n_cycles, lambda v: v[0])
    drawn = tracer.extra_sum("pool.build_pool", n_cycles, lambda v: v[1])
    m["pool.accept_ratio"] = (_ratio(kept, drawn), "fraction")
    m["pool.file_bytes"] = (float(pool_file_bytes), "bytes")
    build_s = secs("pool.build_pool")
    m["pool.build_pool.sample_latent_share"] = (
        _ratio(secs("pool.sample_latent"), build_s), "fraction")
    m["pool.build_pool.prefilter_share"] = (
        _ratio(secs("pool.prefilter"), build_s), "fraction")

    attack_s = secs("pipeline.run_attack")
    targets = tracer.extra_count("pipeline.run_attack", n_cycles)
    q_topn = tracer.extra_sum("pipeline.run_attack", n_cycles, lambda v: v[0])
    q_adv = tracer.extra_sum("pipeline.run_attack", n_cycles, lambda v: v[1])
    rank1 = tracer.extra_sum("pipeline.run_attack", n_cycles,
                             lambda v: v[2] == 1)
    m["pipeline.q_topn"] = (_ratio(q_topn, targets), "queries")
    m["pipeline.q_adv"] = (_ratio(q_adv, targets), "queries")
    m["pipeline.chosen_rank1_frac"] = (_ratio(rank1, targets), "fraction")
    m["pipeline.run_attack.ranking_share"] = (
        _ratio(secs("ranking.rank_candidates"), attack_s), "fraction")
    m["pipeline.run_attack.refine_share"] = (
        _ratio(secs("refine.refine_whitebox") + secs("refine.refine_blackbox"),
               attack_s), "fraction")
    m["models.backend_calls_per_query"] = (
        _ratio(tracer.attack_backend_calls(n_cycles), q_topn + q_adv), "count")
    m["ranking.rank_candidates.s_per_target"] = (
        _ratio(secs("ranking.rank_candidates"), calls("ranking.rank_candidates")),
        "s")

    wb_iters = tracer.extra_sum("refine.refine_whitebox", n_cycles, lambda v: v[0])
    bb_queries = tracer.extra_sum("refine.refine_blackbox", n_cycles, lambda v: v[1])
    m["refine.refine_whitebox.iterations"] = (wb_iters, "count")
    m["refine.refine_whitebox.s_per_iter"] = (
        _ratio(secs("refine.refine_whitebox"), wb_iters), "s")
    m["refine.refine_blackbox.queries"] = (bb_queries, "queries")
    m["refine.refine_blackbox.s_per_query"] = (
        _ratio(secs("refine.refine_blackbox"), bb_queries), "s")
    m["trace.spans"] = (sum(row[0] for row in t.values()), "count")
    return m
