"""Output checks and behaviour fingerprints, independent of the package.

Results and reports are parsed here with plain ``json`` and text handling
rather than the package's own readers, so a reader bug cannot hide a bad
file.  Every check returns a list of violation messages; an empty list
means the output is correct.
"""
import hashlib
import json
import math


def read_records(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_records(records, *, volume, num_targets, mode, top_n, epsilon,
                  t_max=None, q_max=None, pool_latents=None):
    """Ledger, budget and feasibility invariants of one ``attack`` output.

    ``pool_latents`` maps pool index to latent values; when given, the
    refined latent must lie within ``epsilon`` (L2) of the chosen entry.
    """
    bad = []
    if len(records) != num_targets:
        bad.append(f"{len(records)} records for {num_targets} targets")
    for rec in records:
        tid = rec.get("target_id", "?")
        if rec.get("error") is not None:
            bad.append(f"{tid}: failure record: {rec['error']}")
            continue
        ledger = rec["ledger"]
        if ledger["q_topn"] != volume:
            bad.append(f"{tid}: q_topn {ledger['q_topn']} != V {volume}")
        if ledger["total"] != ledger["q_topn"] + ledger["q_adv"]:
            bad.append(f"{tid}: ledger total {ledger['total']} != q_topn + q_adv")
        if mode == "blackbox" and ledger["total"] > q_max:
            bad.append(f"{tid}: ledger total {ledger['total']} > q_max {q_max}")
        if mode == "whitebox" and ledger["q_adv"] > top_n * (t_max + 1):
            bad.append(f"{tid}: q_adv {ledger['q_adv']} > N*(t_max+1) "
                       f"{top_n * (t_max + 1)}")
        if pool_latents is not None:
            chosen = [c for c in rec["candidates"] if c["rank"] == rec["chosen_rank"]]
            if len(chosen) != 1:
                bad.append(f"{tid}: chosen rank {rec['chosen_rank']} not among "
                           "the refined candidates")
                continue
            origin = pool_latents[chosen[0]["pool_index"]]
            dist = math.sqrt(sum((a - b) ** 2 for a, b in
                                 zip(rec["refined_latent"], origin)))
            # The ball is closed; allow rounding of x0 + delta - x0.
            if dist > epsilon * (1.0 + 1e-9):
                bad.append(f"{tid}: refined latent {dist:.6f} from its pool "
                           f"entry, epsilon {epsilon}")
    return bad


def report_rows(text):
    """Per-target rows of a report CSV (no header, averages or summary)."""
    lines = text.splitlines()[1:]
    return [ln for ln in lines if ln and not ln.startswith(("#", "AVERAGE,"))]


def report_summary(text):
    """The cross-model summary as one line, and its Type II accuracy."""
    values = {}
    for line in text.splitlines():
        if line.startswith("# cross_model_"):
            key, _, value = line[2:].partition(" = ")
            values[key] = value
    line = " ".join(f"{k}={v}" for k, v in values.items())
    return line, float(values.get("cross_model_type2", "nan"))


def check_report(text, *, ok_targets, n_models):
    bad = []
    rows = report_rows(text)
    if len(rows) != ok_targets * n_models:
        bad.append(f"report has {len(rows)} rows, expected "
                   f"{ok_targets} targets x {n_models} models")
    _, type2 = report_summary(text)
    if not 0.0 <= type2 <= 1.0:
        bad.append(f"report Type II accuracy {type2} outside [0, 1]")
    return bad


def check_pool(pool, volume):
    if pool.V != volume or len(pool.entries) != volume:
        return [f"pool reloads with {len(pool.entries)} entries, V = {volume}"]
    return []


def file_digest(path):
    # Not a CRC: the pool file ends with its own CRC-32, so the CRC of the
    # whole file is the same constant for every pool.
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def fingerprint(pool_digest, records, report_text):
    """What a 'same answers' change must leave unchanged."""
    pairs = [(r.get("chosen_rank"), r.get("ledger", {}).get("total"))
             for r in records]
    sim_sum = sum(r.get("final_similarity", 0.0) for r in records)
    pair_text = " ".join(f"{rank}:{total}" for rank, total in pairs)
    return {
        "pool_sha256": pool_digest,
        "targets_sha256": hashlib.sha256(pair_text.encode()).hexdigest()[:16],
        "targets": pair_text,
        "final_similarity_sum": f"{sim_sum:.10f}",
        "report_summary": report_summary(report_text)[0],
    }
