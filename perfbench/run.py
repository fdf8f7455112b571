"""End-to-end and per-layer benchmark of the embinvert CLI.

Run from the repository root:

    python3 perfbench/run.py --workload whitebox-paper --seed 7 --seconds 25 --trace 0

Each workload drives ``embinvert.cli.main`` in this one process with
``--jobs 1``: a set-up (world build, and for the attack workloads the
pool build), then cycles of the workload's commands for ``--seconds``.
Every output is checked.  Human-readable lines come first; the last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a separate traced run with ``--trace 1``.  See README.md.
"""
import os

# Pinned before numpy is first imported: on a 2-core host OpenBLAS's
# default threading makes a batched matmul about 8x slower.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import checks
from hostspeed import BOUNDARY_REPEATS, HostSpeed
from tracing import Tracer, per_layer

ROOT = Path(__file__).resolve().parent.parent

DEFAULT_SEED = 7        # the README desk seed; README.md names the held-out one
SETUP_REPEATS = 5
MIN_CYCLES = 2

# name -> unit, in print order.  All are printed; all but REPORTED_ONLY go
# into the final JSON line.
END_TO_END = {
    "setup_s": "s",
    "build_pool_s": "s",
    "pool_draws_per_s": "1/s",
    "calibrate_s": "s",
    "attack_s": "s",
    "targets_per_s": "1/s",
    "target_p50_ms": "ms",
    "target_p90_ms": "ms",
    "queries_per_s": "1/s",
    "report_s": "s",
    "queries_per_target": "queries",
    "success_rate": "fraction",
    "peak_rss_mb": "MB",
    "type2_cross": "fraction",
    "failed_frac": "fraction",
}
# Type II accuracy swings by +-15% between seeds on the black-box workload,
# and the p90 latency by +-10-20%: it is set by which 10 of the 100 targets
# are hardest, so it measures the seed's targets, not the program.
# failed_frac is 0 on a correct run, so it cannot carry a relative bound;
# the JSON line's "failed" and "attempted" carry it.
REPORTED_ONLY = ("target_p90_ms", "type2_cross", "failed_frac")
JSON_METRICS = tuple(m for m in END_TO_END if m not in REPORTED_ONLY)

COMMON = {
    "backend": "synthetic",
    "target_model": "synthetic-embedder-0",
    "d_lat": 64,
    "image_shape": "3x16x16",
    "embedder_dims": "128,128",
    "top_n": 3,
    "norm": "l2",
    "epsilon": 35.0,
    "num_targets": 100,
    "jobs": 1,
}
# Desk geometry, but with 100 identities: at 20 the calibrate and report
# commands take 40-80 ms and swing by up to 1.7x from run to run on a
# shared 2-vCPU host.
DESK = {"n_identities": 100, "images_per_identity": 4, "volume": 100}


@dataclass(frozen=True)
class Workload:
    why: str
    config: dict
    build_in_cycle: bool   # True: build-pool is timed in every cycle


WORKLOADS = {
    "pool-build": Workload(
        "build-pool at the paper thresholds 0.999: latent sampling and the K2 "
        "prefilter dominate; the only path that writes a pool",
        dict(DESK, tau_k=0.999, tau_d=0.999, mode="whitebox", tau_c=0.95,
             t_max=100),
        build_in_cycle=True),
    "whitebox-paper": Workload(
        "V=1000, 200x8 identities: selection (V embeds per target) dominates "
        "attack, evaluation dominates calibrate and report",
        dict(n_identities=200, images_per_identity=8, volume=1000, tau_k=0.9,
             tau_d=0.9, mode="whitebox", tau_c=0.99, t_max=100),
        build_in_cycle=False),
    "whitebox-deep": Workload(
        "V=100 at tau_c 0.999: about 60 white-box iterations per target, so "
        "refinement dominates attack",
        dict(DESK, tau_k=0.99, tau_d=0.99, mode="whitebox", tau_c=0.999,
             t_max=100),
        build_in_cycle=False),
    "blackbox-desk": Workload(
        "V=100, q_max 1000: black-box refinement dominates, one generate and "
        "embed per charged query",
        dict(DESK, tau_k=0.99, tau_d=0.99, mode="blackbox", tau_c=0.65,
             t_max=None, q_max=1000),
        build_in_cycle=False),
}


def write_config(path, values):
    lines = []
    for key, value in values.items():
        lines.append(f"{key} = {'' if value is None else value}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


class Bench:
    """Runs one workload's commands and tallies every check."""

    def __init__(self, cli, embinvert, workload, config, workdir, speed):
        self.cli = cli
        self.speed = speed
        self.embinvert = embinvert
        self.workload = workload
        self.config = config
        self.cfg_path = Path(workdir) / "run.cfg"
        write_config(self.cfg_path, config)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.times = defaultdict(list)     # scaled to the host's usual speed
        self.raw_times = defaultdict(list)
        self.factors = defaultdict(list)
        self.stdout = ""
        self.drawn = None
        self.pool_digest = None
        self.pool_latents = None
        self.answers = None      # exact answers; every cycle's must agree
        self.fingerprints = []
        self.target_ms = []

    def tally(self, problems, attempted):
        self.attempted += attempted
        self.failed += len(problems)
        self.problems.extend(problems)

    def timed(self, name, fn):
        result, wall, factor = self.speed.timed(fn)
        self.raw_times[name].append(wall)
        self.factors[name].append(factor)
        self.times[name].append(wall * factor)
        return result

    def command(self, name):
        out, err = io.StringIO(), io.StringIO()

        def call():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return self.cli.main([name, "--config", str(self.cfg_path),
                                      "--jobs", "1"])

        code = self.timed(name, call)
        tail = err.getvalue().strip().splitlines()[-1:]
        self.tally([f"{name} exited with code {code}: {tail}"] if code else [], 1)
        self.stdout = out.getvalue()

    def build_pool(self):
        self.command("build-pool")
        for line in self.stdout.splitlines():
            if line.startswith("candidates drawn:"):
                self.drawn = int(line.split(":")[1])
        path = self.config["pool_path"]
        pool = self.embinvert.pool.load_pool(path)
        self.tally(checks.check_pool(pool, self.config["volume"]), 1)
        self.pool_digest = checks.file_digest(path)
        self.pool_latents = [e.latent.values.tolist() for e in pool.entries]

    def setup(self):
        """World build (and pool build, unless timed per cycle)."""
        def work():
            if self.workload.build_in_cycle:
                config = self.cli.load_config(str(self.cfg_path)).validate()
                self.cli.build_backend(config)
            else:
                self.build_pool()

        self.timed("setup", work)

    def cycle(self):
        """The timed commands once, then their checks; returns their seconds."""
        start = time.perf_counter()
        if self.workload.build_in_cycle:
            self.build_pool()
        for name in ("calibrate", "attack", "report"):
            self.command(name)
        elapsed = time.perf_counter() - start
        self.check_cycle()
        return elapsed

    def check_cycle(self):
        cfg = self.config
        records = checks.read_records(cfg["results_path"])
        self.tally(checks.check_records(
            records, volume=cfg["volume"], num_targets=cfg["num_targets"],
            mode=cfg["mode"], top_n=cfg["top_n"], epsilon=cfg["epsilon"],
            t_max=cfg.get("t_max"), q_max=cfg.get("q_max"),
            pool_latents=self.pool_latents), len(records) + 1)
        ok = [r for r in records if r.get("error") is None]
        report = Path(cfg["report_path"]).read_text(encoding="utf-8")
        n_models = len(cfg["embedder_dims"].split(","))
        self.tally(checks.check_report(report, ok_targets=len(ok),
                                       n_models=n_models), 1)
        fp = checks.fingerprint(self.pool_digest, records, report)
        changed = self.fingerprints and fp != self.fingerprints[0]
        self.tally(["fingerprint differs between cycles"] if changed else [], 1)
        self.fingerprints.append(fp)
        factor = self.factors["attack"][-1]
        self.target_ms.append([1000.0 * r["wall_time"] * factor for r in ok])
        if self.answers is None:
            self.answers = {
                "targets": len(records),
                "queries": sum(r["ledger"]["total"] for r in ok),
                "successes": sum(r["final_similarity"] >= cfg["tau_c"] for r in ok),
                "type2": checks.report_summary(report)[1],
            }

    def timed_cycles(self, seconds, tracer=None, min_cycles=MIN_CYCLES):
        """At least ``min_cycles`` cycles; more while the next one is
        expected to end within ``seconds``."""
        cycles = []
        start = time.perf_counter()
        while (len(cycles) < min_cycles
               or time.perf_counter() - start + cycles[-1] <= seconds):
            if tracer is not None:
                tracer.phase = len(cycles) + 1
            cycles.append(self.cycle())
        return cycles


def end_to_end(bench, import_s):
    """Times are medians over the run's repeats, scaled to the host's usual
    speed; latencies pool every cycle."""
    med = statistics.median
    build_s = med(bench.times["build-pool"])
    attack_s = med(bench.times["attack"])
    target_ms = [ms for per_cycle in bench.target_ms for ms in per_cycle]
    first = bench.answers
    return {
        "setup_s": import_s + med(bench.times["setup"]),
        "build_pool_s": build_s,
        "pool_draws_per_s": bench.drawn / build_s,
        "calibrate_s": med(bench.times["calibrate"]),
        "attack_s": attack_s,
        "targets_per_s": first["targets"] / attack_s,
        "target_p50_ms": med(target_ms),
        "target_p90_ms": statistics.quantiles(target_ms, n=10)[8],
        "queries_per_s": first["queries"] / attack_s,
        "report_s": med(bench.times["report"]),
        "queries_per_target": first["queries"] / first["targets"],
        "success_rate": first["successes"] / first["targets"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "type2_cross": first["type2"],
        "failed_frac": bench.failed / max(bench.attempted, 1),
    }


def _untraced(bench, seconds, import_s):
    speed = bench.speed
    speed.sample(BOUNDARY_REPEATS)
    import_s *= speed.factor(0)
    # A kernel run between targets follows the host through a long attack.
    unhook = speed.hook(bench.cli, "run_attack")
    try:
        for _ in range(SETUP_REPEATS):
            bench.setup()
        cycles = bench.timed_cycles(seconds)
    finally:
        unhook()
    values = end_to_end(bench, import_s)
    lines = [f"cycles: {len(cycles)} timed, {SETUP_REPEATS} set-ups; per-target "
             f"latency samples: {sum(map(len, bench.target_ms))}; kernel runs: "
             f"{len(speed.samples)}, {speed.spent:.2f} s"]
    for stage, times in bench.times.items():
        lines.append(f"samples {stage}: " + " ".join(f"{t:.4f}" for t in times))
        lines.append(f"wall {stage}: " + " ".join(
            f"{t:.4f}" for t in bench.raw_times[stage]))
        lines.append(f"speed {stage}: " + " ".join(
            f"{f:.3f}" for f in bench.factors[stage]))
    for metric, unit in END_TO_END.items():
        lines.append(f"metric {metric} = {values[metric]:.6g} {unit}")
    return {m: (values[m], END_TO_END[m]) for m in JSON_METRICS}, lines


def _traced(bench, seconds, embinvert):
    # The workload untraced for a third of the time, then traced: the
    # difference of the median cycles is the tracing overhead.
    bench.setup()
    untraced = bench.timed_cycles(seconds / 3, min_cycles=1)
    before = {stage: len(times) for stage, times in bench.times.items()}
    tracer = Tracer(embinvert).install()
    try:
        tracer.phase = 0
        bench.setup()
        traced_setup = bench.times["setup"][-1]
        cycles = bench.timed_cycles(seconds, tracer)
    finally:
        tracer.uninstall()
    metrics = per_layer(tracer, len(cycles),
                        os.path.getsize(bench.config["pool_path"]))
    med = statistics.median
    overhead = med(cycles) / med(untraced) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "fraction")
    lines = [f"traced: {len(cycles)} cycles, {len(tracer.spans)} spans, set-up "
             f"{traced_setup:.3f} s; median cycle {med(cycles):.3f} s traced vs "
             f"{med(untraced):.3f} s untraced (overhead {overhead:+.1%})"]
    for stage in ("build-pool", "calibrate", "attack", "report"):
        times = bench.times[stage]
        lines.append(f"traced {stage}: median {med(times[before[stage]:]):.4f} s, "
                     f"untraced {med(times[:before[stage]]):.4f} s")
    if tracer.missing:
        lines.append(f"not traced (absent): {', '.join(tracer.missing)}")
    lines.append("registry: not exercised by the synthetic backend; "
                 "no metric reported")
    for metric, (value, unit) in sorted(metrics.items()):
        lines.append(f"layer {metric} = {value:.6g} {unit}")
    return metrics, lines


def run_workload(cli, embinvert, workload, seed, seconds, trace, workdir,
                 import_s):
    """Run one workload (a name or a Workload) in ``workdir``."""
    if isinstance(workload, str):
        workload = WORKLOADS[workload]
    config = dict(COMMON, **workload.config, seed=seed)
    for key, filename in (("pool_path", "pool.lpool"),
                          ("thresholds_path", "thresholds.json"),
                          ("results_path", "results.ndjson"),
                          ("report_path", "report.csv")):
        config[key] = str(Path(workdir) / filename)
    bench = Bench(cli, embinvert, workload, config, workdir,
                  HostSpeed(enabled=not trace))
    if trace:
        metrics, lines = _traced(bench, seconds, embinvert)
    else:
        metrics, lines = _untraced(bench, seconds, import_s)
    fp = bench.fingerprints[0]
    lines.append("fingerprint: " + json.dumps(
        {k: v for k, v in fp.items() if k != "targets"}, sort_keys=True))
    lines.append(f"fingerprint targets (chosen_rank:ledger.total): {fp['targets']}")
    lines.extend(f"CHECK FAILED: {problem}" for problem in bench.problems[:20])
    return {
        "lines": lines,
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def git_revision(root):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def source_digest(src):
    h = hashlib.sha256()
    for path in sorted((src / "embinvert").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(root, numpy):
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy has no dict mode
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_revision": git_revision(root),
        "src_sha256": source_digest(root / "src"),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "embinvert" / "__init__.py").is_file():
        print(f"error: no embinvert package under {src}", file=sys.stderr)
        return 2
    # EMBINVERT_<KEY> variables override config keys; the workload is the
    # config written here, nothing else.
    for key in [k for k in os.environ if k.startswith("EMBINVERT_")]:
        del os.environ[key]
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import embinvert
    import embinvert.cli as cli
    import_s = time.perf_counter() - start
    if Path(embinvert.__file__).resolve().parent != (src / "embinvert").resolve():
        print(f"error: imported embinvert from {embinvert.__file__}", file=sys.stderr)
        return 2
    import numpy

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        result = run_workload(cli, embinvert, args.workload, args.seed,
                              args.seconds, args.trace, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"workload: {args.workload} (seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}): {WORKLOADS[args.workload].why}")
    print("env: " + json.dumps(environment(ROOT, numpy), sort_keys=True))
    for line in result.pop("lines"):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
