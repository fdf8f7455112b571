"""Persistence for attack results, thresholds, and evaluation reports.

Results are newline-delimited JSON, one self-describing record per target,
with the run configuration's checksum embedded for provenance.  Reports
are comma-separated values in a fixed column order followed by average
rows and a commented summary block.  Only ``fileio`` reads and writes
these files, and it maps an OS failure to ``IoFailure`` (exit code 4).
"""
import json
import math
import numbers
from typing import Dict, List, Optional, Sequence

from .errors import IoFailure
from .evaluation import EvaluationReport
from .fileio import read_file, replace_file
from .pipeline import AttackResult

RESULT_SCHEMA = "embinvert-result-v1"
THRESHOLDS_SCHEMA = "embinvert-thresholds-v1"

REPORT_COLUMNS = ("target_id", "target_model", "eval_model", "similarity",
                  "type1_hit", "type2_rate", "queries", "wall_time")


def failure_record(*, target_id: str, target_model_id: str, identity_id: str,
                   image_index: int, config_checksum: str,
                   error: Optional[str]) -> dict:
    """The record header every result shares, with ``error`` set."""
    return {
        "schema": RESULT_SCHEMA,
        "config_checksum": config_checksum,
        "target_id": target_id,
        "target_model_id": target_model_id,
        "identity_id": identity_id,
        "image_index": image_index,
        "error": error,
    }


def result_record(result: AttackResult, **header) -> dict:
    """A success record: ``failure_record``'s header keys (``target_id``,
    ``target_model_id``, ``identity_id``, ``image_index``,
    ``config_checksum``) with ``error`` None, plus the attack's outcome."""
    return {
        **failure_record(**header, error=None),
        "chosen_rank": result.chosen_rank,
        "final_similarity": result.final_similarity,
        "ledger": {
            "q_topn": result.ledger.q_topn,
            "q_adv": result.ledger.q_adv,
            "q_max": result.ledger.q_max,
            "total": result.ledger.total,
        },
        "wall_time": result.wall_time,
        "refined_latent": [float(v) for v in result.refined_latent.values],
        "candidates": [
            {
                "rank": cand.rank,
                "pool_index": cand.pool_index,
                "initial_similarity": cand.initial_similarity,
                "final_similarity": ref.final_similarity,
                "iterations_used": ref.iterations_used,
                "queries_used": ref.queries_used,
                "stop_reason": ref.stop_reason,
            }
            for cand, ref in zip(result.candidates, result.candidate_traces)
        ],
    }


def write_results(path, records: Sequence[dict]):
    replace_file(path, "".join(
        json.dumps(rec, sort_keys=True) + "\n" for rec in records
    ).encode("utf-8"), "results")


def _is_real(value) -> bool:
    """A finite real number within float range, numpy scalars included;
    not a bool.  int and float come first to skip the slower ABC check."""
    try:
        return (isinstance(value, (int, float, numbers.Real))
                and not isinstance(value, bool) and math.isfinite(value))
    except OverflowError:
        return False


def _all_real(values) -> bool:
    """Every JSON value in ``values`` is a finite int or float within float
    range; one type check and one finiteness pass for the whole list."""
    try:
        return set(map(type, values)) <= {int, float} and all(map(math.isfinite, values))
    except OverflowError:
        return False


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def check_result_record(rec, where: str):
    """Raise IoFailure unless ``rec`` is a result or failure record with
    every field that ``report`` reads, of the right type, and a success
    record's ledger adds up and its chosen rank is a listed candidate."""
    def bad(problem):
        raise IoFailure(f"{where}: {problem}")

    if not isinstance(rec, dict):
        bad(f"expected a JSON object, got {type(rec).__name__}")
    if rec.get("schema") != RESULT_SCHEMA:
        bad(f"schema {rec.get('schema')!r} is not {RESULT_SCHEMA!r}")
    for key in ("target_id", "target_model_id", "identity_id"):
        if not isinstance(rec.get(key), str):
            bad(f"{key!r} must be a string")
    if not _is_count(rec.get("image_index")):
        bad("'image_index' must be a non-negative integer")
    if "error" not in rec or not isinstance(rec["error"], (str, type(None))):
        bad("'error' must be null or a string")
    if rec["error"] is not None:
        return
    latent = rec.get("refined_latent")
    if not (isinstance(latent, list) and latent and _all_real(latent)):
        bad("'refined_latent' must be a non-empty list of finite numbers")
    ledger = rec.get("ledger")
    if not (isinstance(ledger, dict)
            and all(_is_count(ledger.get(k)) for k in ("q_topn", "q_adv", "total"))
            and ledger["total"] == ledger["q_topn"] + ledger["q_adv"]):
        bad("'ledger' must hold counts q_topn, q_adv and total = q_topn + q_adv")
    # Not q_adv == sum(queries_used): aborted candidates are charged but not listed.
    chosen = (rec.get("chosen_rank"), rec.get("final_similarity"))
    if not (_is_count(chosen[0]) and _is_real(chosen[1])
            and isinstance(rec.get("candidates"), list)
            and chosen in [(c.get("rank"), c.get("final_similarity"))
                           for c in rec["candidates"] if isinstance(c, dict)]):
        bad("'chosen_rank' and 'final_similarity' match no listed candidate")
    if not _is_real(rec.get("wall_time")):
        bad("'wall_time' must be a finite number")


def read_results(path) -> List[dict]:
    try:
        lines = read_file(path, "results").decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise IoFailure(f"results {path} is not UTF-8 text: {exc}") from exc
    records = []
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise IoFailure(f"corrupt results line in {path}: {exc}") from exc
        check_result_record(rec, f"{path} line {number}")
        records.append(rec)
    return records


def write_thresholds(path, by_model: Dict[str, dict]):
    payload = {"schema": THRESHOLDS_SCHEMA, "models": by_model}
    replace_file(path, (json.dumps(payload, sort_keys=True, indent=2)
                        + "\n").encode("utf-8"), "thresholds")


def read_thresholds(path) -> Dict[str, dict]:
    try:
        payload = json.loads(read_file(path, "thresholds").decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise IoFailure(f"corrupt thresholds file {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("schema") != THRESHOLDS_SCHEMA:
        raise IoFailure(f"{path} is not a thresholds file")
    models = payload.get("models")
    if not isinstance(models, dict):
        raise IoFailure(f"{path}: 'models' must be a JSON object")
    for model_id, entry in models.items():
        if not (isinstance(entry, dict)
                and all(_is_real(entry.get(key)) for key in ("tau_F", "tau_C", "eer"))):
            raise IoFailure(
                f"{path}: model {model_id!r} needs finite numbers tau_F, tau_C and eer")
    return models


def format_report(report: EvaluationReport) -> str:
    lines = [",".join(REPORT_COLUMNS)]
    for r in report.rows:
        lines.append(",".join([
            r.target_id,
            r.target_model_id,
            r.eval_model_id,
            f"{r.similarity:.6f}",
            str(int(r.type1_hit)),
            f"{r.type2_rate:.6f}",
            str(r.queries),
            f"{r.wall_time:.3f}",
        ]))
    for m in report.per_model:
        lines.append(",".join([
            "AVERAGE",
            "",
            m.eval_model_id,
            f"{m.mean_similarity:.6f}",
            f"{m.type1_accuracy:.6f}",
            f"{m.type2_accuracy:.6f}",
            "",
            "",
        ]))
    lines.append("# summary")
    lines.append(f"# cross_model_type1 = {report.cross_model_type1:.6f}")
    lines.append(f"# cross_model_type2 = {report.cross_model_type2:.6f}")
    lines.append(f"# cross_model_similarity = {report.cross_model_similarity:.6f}")
    return "\n".join(lines) + "\n"


def write_report(path, report: EvaluationReport):
    replace_file(path, format_report(report).encode("utf-8"), "report")
