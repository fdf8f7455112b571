"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""
import json
import shutil
import statistics
import subprocess
import sys

import pytest

import checks
import hostspeed
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY_WHITEBOX = run.Workload(
    "tiny white-box",
    dict(n_identities=6, images_per_identity=3, volume=8, tau_k=0.5, tau_d=0.5,
         mode="whitebox", tau_c=0.95, t_max=20, num_targets=12),
    build_in_cycle=True)
TINY_BLACKBOX = run.Workload(
    "tiny black-box",
    dict(n_identities=6, images_per_identity=3, volume=8, tau_k=0.5, tau_d=0.5,
         mode="blackbox", tau_c=0.5, t_max=None, q_max=300, num_targets=12),
    build_in_cycle=False)


@pytest.fixture(scope="module")
def package():
    sys.path.insert(0, str(run.ROOT / "src"))
    import embinvert
    import embinvert.cli
    return embinvert


def _run(package, workload, trace, tmp_path):
    return run.run_workload(package.cli, package, workload, seed=3, seconds=0,
                            trace=trace, workdir=tmp_path, import_s=0.1)


def _names_units(entries):
    return {e["name"]: e["unit"] for e in entries}


@pytest.mark.parametrize("workload", [TINY_WHITEBOX, TINY_BLACKBOX])
def test_every_end_to_end_metric_is_emitted_with_its_unit(package, workload,
                                                          tmp_path):
    result = _run(package, workload, 0, tmp_path)
    assert result["correct"] and result["failed"] == 0
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == _names_units(BENCHMARK["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = [ln for ln in result["lines"] if ln.startswith("metric ")]
    assert len(printed) == len(run.END_TO_END)   # JSON metrics plus the rest


@pytest.mark.parametrize("workload", [TINY_WHITEBOX, TINY_BLACKBOX])
def test_every_per_layer_metric_is_emitted_with_its_unit(package, workload,
                                                         tmp_path):
    result = _run(package, workload, 1, tmp_path)
    assert result["correct"]
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == _names_units(BENCHMARK["per_layer"])


def test_host_speed_leaves_the_kernel_out_of_the_time(monkeypatch):
    monkeypatch.setattr(hostspeed, "EVERY_S", 0.0)   # sample before each call
    speed = hostspeed.HostSpeed()
    owner = type("Owner", (), {"work": staticmethod(lambda: None)})
    unhook = speed.hook(owner, "work")

    def work():
        for _ in range(3):
            owner.work()
        return "done"

    result, wall, factor = speed.timed(work)
    unhook()
    assert result == "done"
    assert len(speed.samples) == 2 * hostspeed.BOUNDARY_REPEATS + 3
    assert 0 <= wall < min(speed.samples)      # no kernel run is counted
    assert factor == hostspeed.REF_S / statistics.median(speed.samples)
    assert hostspeed.HostSpeed(enabled=False).timed(work)[2] == 1.0


def test_workloads_match_benchmark_json():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: w.why for name, w in run.WORKLOADS.items()}


def _tampered(records, **ledger):
    out = json.loads(json.dumps(records))
    out[0]["ledger"].update(ledger)
    return out


def test_checks_reject_a_tampered_results_file(package, tmp_path):
    _run(package, TINY_BLACKBOX, 0, tmp_path)
    records = checks.read_records(tmp_path / "results.ndjson")
    pool = package.pool.load_pool(tmp_path / "pool.lpool")
    latents = [e.latent.values.tolist() for e in pool.entries]
    args = dict(volume=8, num_targets=12, mode="blackbox", top_n=3,
                epsilon=35.0, q_max=300, pool_latents=latents)
    assert checks.check_records(records, **args) == []

    bad = _tampered(records, q_topn=7, total=records[0]["ledger"]["total"] - 1)
    assert any("q_topn 7 != V 8" in p for p in checks.check_records(bad, **args))
    bad = _tampered(records, q_adv=400, total=408)
    assert any("> q_max" in p for p in checks.check_records(bad, **args))
    far = json.loads(json.dumps(records))
    far[0]["refined_latent"] = [v + 10.0 for v in far[0]["refined_latent"]]
    assert any("epsilon" in p for p in checks.check_records(far, **args))
    assert checks.check_records(records[1:], **args)   # a record missing
    wb = dict(args, mode="whitebox", t_max=10, q_max=None)
    bad = _tampered(records, q_adv=34, total=42)
    assert any("N*(t_max+1)" in p for p in checks.check_records(bad, **wb))


def test_checks_reject_a_short_report():
    text = ("target_id,target_model,eval_model,similarity,type1_hit,type2_rate,"
            "queries,wall_time\nt000,m0,m0,0.9,1,1.0,10,0.1\n"
            "# summary\n# cross_model_type2 = 1.000000\n")
    assert checks.check_report(text, ok_targets=1, n_models=1) == []
    assert checks.check_report(text, ok_targets=1, n_models=2)


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pool-build",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
