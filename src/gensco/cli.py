"""Batch front end: run pipelines and baselines over a dataset, evaluate
finished runs offline, and emit plot-ready tables.

Run directory layout: manifest.json, instances.jsonl, traces.jsonl,
answers.jsonl, failures.jsonl (when instances failed), report.json and
report.csv after evaluation. Exit codes: 0 ok, 1 instance failures,
2 fatal.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import fields
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional, Sequence

import click
import yaml

from . import baselines, datasets, metrics
from .llm import HttpBackend, LlmGateway, ScriptedBackend
from .models import (
    AnswerRecord,
    Dataset,
    MultiHopInstance,
    SelectionTrace,
    ValidationError,
    Variant,
    append_jsonl,
    read_jsonl,
)
from .pipeline import GENSCO_VARIANTS, PipelineConfig, answer_step, drive, run_instance, serve
from .prompts import load_shots, load_shots_file
from .scorer import MAX_NLL, MIN_NLL

_BASELINES = frozenset(Variant) - GENSCO_VARIANTS


class ConfigError(ValueError):
    pass


class CorruptTrace(ValueError):
    pass


def load_config(path, overrides: dict[str, Any]) -> dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        cfg = yaml.safe_load(fh) or {}
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    for key, value in overrides.items():
        if value is not None:
            cfg[key] = value
    return cfg


class _Key(NamedTuple):
    expected: str
    accepts: Callable[[Any], bool]
    required: bool = False  # by the variants and backend that read it
    variants: frozenset[Variant] = frozenset(Variant)  # the variants that read it
    backend: Optional[str] = None  # the backend that reads it; None: both


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int(minimum: Optional[int] = None) -> _Key:
    if minimum is None:
        return _Key("an integer", _is_int)
    return _Key(f"an integer >= {minimum}", lambda v: _is_int(v) and v >= minimum)


def _one_of(*choices: str, required: bool = False) -> _Key:
    return _Key(f"one of {', '.join(map(repr, choices))}", lambda v: v in choices, required)


_TEXT = _Key("a string", lambda v: isinstance(v, str))
_FLOAT = _Key("a number", lambda v: _is_int(v) or isinstance(v, float))
_BOOL = _Key("true or false", lambda v: isinstance(v, bool))

# Every config key gensco reads, with the check its value must pass and
# the variants and backend that read it. The PipelineConfig fields that
# answer_step reads (shots, temperature, max_answer_tokens, shuffle,
# shuffle_seed) apply to every variant, the loop's own to GenSco's only.
_CONFIG_KEYS = {
    "dataset": _one_of(*(d.value for d in Dataset), required=True),
    "dataset_path": _TEXT._replace(required=True),
    "variant": _one_of(*(v.value for v in Variant), required=True),
    "backend": _one_of("http", "scripted"),
    "script_file": _TEXT._replace(required=True, backend="scripted"),
    "generator_url": _TEXT._replace(required=True, backend="http"),
    "generator_model": _TEXT._replace(required=True, backend="http"),
    "scorer_url": _TEXT._replace(required=True, backend="http"),
    "scorer_model": _TEXT._replace(required=True, backend="http"),
    "cache_dir": _TEXT,
    "shot_bank": _TEXT,
    "rankings_file": _TEXT._replace(required=True, variants=frozenset({Variant.PRECOMPUTED})),
    "limit": _int(1),
    "concurrency": _int(1),
    "scorer_concurrency": _int(1)._replace(variants=GENSCO_VARIANTS),
    "max_levels": _int(1)._replace(variants=GENSCO_VARIANTS),
    "max_answer_tokens": _int(1),
    "top_k": _int(1)._replace(variants=_BASELINES),
    "shots": _int(0),
    "shuffle_seed": _int(),
    "temperature": _FLOAT,
    "bm25_k1": _FLOAT._replace(variants=frozenset({Variant.BM25})),
    "bm25_b": _FLOAT._replace(variants=frozenset({Variant.BM25})),
    "dedupe_pool": _BOOL._replace(variants=GENSCO_VARIANTS),
    "shuffle": _BOOL,
    "score_sign": _one_of(MIN_NLL, MAX_NLL)._replace(variants=GENSCO_VARIANTS),
}


def _check_config(cfg: dict[str, Any]) -> dict[str, Any]:
    """``cfg`` with its numbers as floats where a float is expected; a
    ConfigError names the first unknown or invalid key, the first key the
    config's variant or backend does not read, or the first missing key
    they need."""
    for key, value in cfg.items():
        spec = _CONFIG_KEYS.get(key)
        if spec is None:
            raise ConfigError(f"unknown config key {key!r}")
        if not spec.accepts(value):
            raise ConfigError(f"config key {key!r} must be {spec.expected}, got {value!r}")
    variant = Variant(cfg["variant"]) if "variant" in cfg else None
    backend = cfg.get("backend", "http")
    for key, spec in _CONFIG_KEYS.items():
        read = spec.backend in (None, backend) and (variant is None or variant in spec.variants)
        if key in cfg and not read:
            raise ConfigError(
                f"config key {key!r} is not read by variant {cfg.get('variant')!r}"
                f" with backend {backend!r}"
            )
        if read and spec.required and key not in cfg:
            raise ConfigError(f"missing config field {key!r}")
    as_float = _FLOAT.accepts  # _replace keeps the check, so it marks every number key
    return {k: float(v) if _CONFIG_KEYS[k].accepts is as_float else v for k, v in cfg.items()}


def _load_file(key: str, path: str, loader: Callable[[str], Any]) -> Any:
    """``loader(path)`` for the file that config key ``key`` names; an
    unreadable or misshapen file is a ConfigError."""
    try:
        return loader(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"config key {key!r}: cannot load {path!r}: {exc}") from exc


def _build_gateway(cfg: dict[str, Any]) -> LlmGateway:
    if cfg.get("backend", "http") == "scripted":
        script = cfg["script_file"]
        generator = scorer = _load_file("script_file", script, ScriptedBackend.from_file)
    else:
        try:
            generator = HttpBackend(cfg["generator_url"], cfg["generator_model"])
            scorer = HttpBackend(cfg["scorer_url"], cfg["scorer_model"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    # One scorer pool for the run: at most concurrency x scorer_concurrency
    # scorer calls in flight over all instances.
    scorer_pool = None
    if cfg.get("scorer_concurrency", 1) >= 2:
        scorer_pool = ThreadPoolExecutor(
            max_workers=cfg.get("concurrency", 1) * cfg["scorer_concurrency"],
            thread_name_prefix="gensco-scorer",
        )
    return LlmGateway(generator, scorer, cache_dir=cfg.get("cache_dir"), scorer_pool=scorer_pool)


def _pipeline_config(cfg: dict[str, Any], dataset: Dataset) -> PipelineConfig:
    """The run's PipelineConfig: each field the config sets, the dataset's
    defaults for the rest."""
    present = {f.name: cfg[f.name] for f in fields(PipelineConfig) if f.name in cfg}
    return PipelineConfig.for_dataset(dataset, **{**present, "variant": Variant(cfg["variant"])})


def _run_baseline_instance(
    inst: MultiHopInstance,
    cfg: dict[str, Any],
    pipe_cfg: PipelineConfig,
    gateway: LlmGateway,
    shot_bank,
    rankings: Optional[dict[str, list[int]]],
) -> tuple[SelectionTrace, AnswerRecord]:
    """The top_k passages by BM25 or by the precomputed ranking, then the answer call."""
    k = cfg.get("top_k", 5)
    if pipe_cfg.variant is Variant.BM25:
        ranked = baselines.bm25_rank(
            inst.question,
            inst.passages,
            k1=cfg.get("bm25_k1", 1.2),
            b=cfg.get("bm25_b", 0.75),
        )
        selected = tuple(p.index for p in baselines.top_k(ranked, k))
    elif inst.id in rankings:
        selected = tuple(rankings[inst.id][:k])
    else:
        raise ConfigError(f"no precomputed ranking for instance {inst.id!r}")
    record = drive(
        answer_step(inst, selected, pipe_cfg, shot_bank, gateway.generator.backend_id),
        lambda request: serve(gateway, request),
    )
    return SelectionTrace(inst.id, pipe_cfg.variant, (), None, selected), record


def _cut_to_whole_instances(paths: Sequence[Path]) -> int:
    """Cut the run files to their first N lines, N the fewest whole
    (newline-ended) lines any of them holds, and return N: a run killed
    between or inside its appends keeps the instances every file holds
    whole. A file that is N lines long already is not written."""
    contents = [path.read_bytes() if path.exists() else b"" for path in paths]
    n = min(data.count(b"\n") for data in contents)
    for path, data in zip(paths, contents):
        end = 0
        for _ in range(n):
            end = data.index(b"\n", end) + 1
        if end < len(data):
            os.truncate(path, end)
    return n


def _done_instances(traces_path: Path) -> set[str]:
    """The instance ids of the kept trace lines; a line that is not a trace
    record is a CorruptTrace naming its file and line."""
    done = set()
    with open(traces_path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                done.add(json.loads(line)["instance_id"])
            except (ValueError, KeyError, TypeError) as exc:
                raise CorruptTrace(f"{traces_path}:{lineno}: not a trace record ({exc!r})") from exc
    return done


def run_batch(cfg: dict[str, Any], run_dir) -> int:
    """Execute (or resume) one run; returns the process exit code."""
    cfg = _check_config(cfg)
    run_dir = Path(run_dir)
    manifest_path = run_dir / "manifest.json"
    invocations = _previous_invocations(manifest_path)
    run_dir.mkdir(parents=True, exist_ok=True)
    dataset = Dataset(cfg["dataset"])
    dataset_path = Path(cfg["dataset_path"])
    instances = datasets.load(
        datasets.DatasetConfig(
            dataset=dataset, path=str(dataset_path), limit=cfg.get("limit")
        )
    )
    if "shot_bank" in cfg:
        shot_bank = _load_file("shot_bank", cfg["shot_bank"], load_shots_file)
    else:
        shot_bank = load_shots(dataset)
    rankings = None
    if "rankings_file" in cfg:
        rankings = _load_file("rankings_file", cfg["rankings_file"], baselines.load_rankings)
    gateway = _build_gateway(cfg)
    pipe_cfg = _pipeline_config(cfg, dataset)
    is_baseline = pipe_cfg.variant not in GENSCO_VARIANTS

    traces_path = run_dir / "traces.jsonl"
    answers_path = run_dir / "answers.jsonl"
    instances_path = run_dir / "instances.jsonl"
    failures_path = run_dir / "failures.jsonl"
    done: set[str] = set()
    if _cut_to_whole_instances((instances_path, traces_path, answers_path)):
        done = _done_instances(traces_path)
    todo = [inst for inst in instances if inst.id not in done]

    started = time.time()

    def process(inst: MultiHopInstance):
        try:
            if is_baseline:
                trace, record = _run_baseline_instance(
                    inst, cfg, pipe_cfg, gateway, shot_bank, rankings
                )
            else:
                trace, record = run_instance(inst, pipe_cfg, gateway, shot_bank)
            return inst, trace.to_dict(), record.to_dict(), None
        except Exception as exc:  # noqa: BLE001 - batch isolation boundary
            return inst, None, None, f"{type(exc).__name__}: {exc}"

    failures = 0
    concurrency = cfg.get("concurrency", 1)
    with closing(gateway), open(traces_path, "a", encoding="utf-8") as tf, open(
        answers_path, "a", encoding="utf-8"
    ) as af, open(instances_path, "a", encoding="utf-8") as inf, open(
        failures_path, "a", encoding="utf-8"
    ) as ff:
        with ThreadPoolExecutor(max_workers=concurrency) as pool:
            # executor.map preserves submission order, so completed records
            # land in the files in instance order regardless of timing.
            for inst, trace_dict, answer_dict, error in pool.map(process, todo):
                if error is not None:
                    failures += 1
                    append_jsonl(ff, {"instance_id": inst.id, "error": error})
                    continue
                append_jsonl(inf, inst.to_dict())
                append_jsonl(tf, trace_dict)
                append_jsonl(af, answer_dict)
    if failures == 0 and failures_path.stat().st_size == 0:
        failures_path.unlink()

    invocation = {
        "started": started,
        "finished": time.time(),
        "instances_skipped": len(instances) - len(todo),
        "instances_failed": failures,
        "llm_calls": gateway.stats(),
    }
    manifest = {
        "run_id": run_dir.name,
        "config": cfg,
        "dataset_digest": hashlib.sha256(dataset_path.read_bytes()).hexdigest(),
        "backends": {
            "generator": gateway.generator.backend_id,
            "scorer": gateway.scorer.backend_id,
        },
        "instances_total": len(instances),
        **invocation,
        "invocations": invocations + [invocation],
    }
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 1 if failures else 0


def _previous_invocations(manifest_path: Path) -> list[dict[str, Any]]:
    """The invocations listed by the run's earlier manifest, if any."""
    if not manifest_path.exists():
        return []
    try:
        return json.loads(manifest_path.read_text(encoding="utf-8")).get("invocations", [])
    except (ValueError, AttributeError) as exc:
        raise CorruptTrace(f"{manifest_path}: unreadable ({exc})") from exc


def evaluate_run(run_dir) -> metrics.EvalReport:
    """Recompute the metric report for a finished run, offline."""
    run_dir = Path(run_dir)
    traces_path = run_dir / "traces.jsonl"
    answers_path = run_dir / "answers.jsonl"
    instances_path = run_dir / "instances.jsonl"
    for path in (traces_path, answers_path, instances_path):
        if not path.exists():
            raise CorruptTrace(f"{path}: missing")
    try:
        instances = {
            rec["id"]: MultiHopInstance.from_dict(rec)
            for rec in read_jsonl(instances_path)
        }
        traces = {rec["instance_id"]: rec for rec in read_jsonl(traces_path)}
        answers = [AnswerRecord.from_dict(rec) for rec in read_jsonl(answers_path)]
    except (ValueError, KeyError, TypeError) as exc:
        raise CorruptTrace(str(exc)) from exc
    if not answers:
        raise CorruptTrace(f"{answers_path}: no answer records")

    rows: list[metrics.InstanceEval] = []
    for answer in answers:
        inst = instances.get(answer.instance_id)
        trace = traces.get(answer.instance_id)
        if inst is None or trace is None:
            raise CorruptTrace(
                f"answer for {answer.instance_id!r} has no matching instance/trace"
            )
        try:
            passages = [inst.passage_by_index(i).body for i in answer.context_order]
            selected = trace["selected_sequence"]
        except KeyError as exc:
            raise CorruptTrace(
                f"records of {answer.instance_id!r} name an absent passage or field {exc}"
            ) from exc
        am = metrics.answer_metrics(answer.predicted_answer, inst.gold_answer)
        kp = metrics.k_precision(answer.predicted_answer, passages)
        retrieval = None
        supporting_count = None
        if inst.supporting_indices is not None:
            retrieval = metrics.retrieval_metrics(selected, set(inst.supporting_indices))
            supporting_count = len(inst.supporting_indices)
        rows.append(
            metrics.InstanceEval(
                instance_id=answer.instance_id,
                answer=am,
                k_precision=kp,
                retrieval=retrieval,
                supporting_count=supporting_count,
            )
        )

    report = metrics.aggregate(rows)
    payload = {
        "count": report.count,
        "means": report.means,
        "percents": report.percents,
        "delta_hops_hist": {
            str(k): {str(d): n for d, n in sorted(v.items())}
            for k, v in sorted(report.delta_hops_hist.items())
        },
        "per_instance": [_row_dict(r) for r in rows],
    }
    (run_dir / "report.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    with open(run_dir / "report.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_CSV_FIELDS)
        writer.writeheader()
        for r in rows:
            writer.writerow(_row_dict(r))
    return report


_CSV_FIELDS = [
    "instance_id",
    "em",
    "f1",
    "precision",
    "recall",
    "k_precision",
    "retrieval_precision",
    "retrieval_recall",
    "retrieval_f1",
    "delta_hops",
    "supporting_count",
]


def _row_dict(r: metrics.InstanceEval) -> dict[str, Any]:
    row: dict[str, Any] = {
        "instance_id": r.instance_id,
        "em": r.answer.em,
        "f1": r.answer.f1,
        "precision": r.answer.precision,
        "recall": r.answer.recall,
        "k_precision": r.k_precision,
        "retrieval_precision": None,
        "retrieval_recall": None,
        "retrieval_f1": None,
        "delta_hops": None,
        "supporting_count": r.supporting_count,
    }
    if r.retrieval is not None:
        row.update(
            retrieval_precision=r.retrieval.precision,
            retrieval_recall=r.retrieval.recall,
            retrieval_f1=r.retrieval.f1,
            delta_hops=r.retrieval.delta_hops,
        )
    return row


def emit_plotdata(run_dirs, out_dir, subset_sizes=(), seed: int = 0) -> None:
    """Write scatter, delta-hops histogram and subset tables for the runs."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    scatter_rows = []
    hist_rows = []
    subset_rows = []
    for run_dir in run_dirs:
        run_dir = Path(run_dir)
        report_path = run_dir / "report.json"
        if not report_path.exists():
            raise CorruptTrace(f"{report_path}: run not evaluated yet")
        report = json.loads(report_path.read_text(encoding="utf-8"))
        run_id = run_dir.name
        rows = report["per_instance"]
        kp = [r["k_precision"] for r in rows]
        f1 = [r["f1"] for r in rows]
        try:
            r_value = metrics.pearson(kp, f1) if len(rows) >= 2 else ""
        except metrics.DegenerateVariance:
            r_value = ""
        for r in rows:
            scatter_rows.append(
                {
                    "run_id": run_id,
                    "instance_id": r["instance_id"],
                    "k_precision": r["k_precision"],
                    "f1": r["f1"],
                    "pearson": r_value,
                }
            )
        for support, buckets in report["delta_hops_hist"].items():
            for delta, n in buckets.items():
                hist_rows.append(
                    {
                        "run_id": run_id,
                        "supporting_count": support,
                        "delta_hops": delta,
                        "count": n,
                    }
                )
        if subset_sizes:
            # Oversize sizes take every row.
            sizes = [min(size, len(rows)) for size in subset_sizes]
            for subset in datasets.subsample(rows, sizes, seed):
                if not subset:
                    continue
                n = len(subset)
                subset_rows.append(
                    {
                        "run_id": run_id,
                        "size": n,
                        "em": 100.0 * sum(r["em"] for r in subset) / n,
                        "f1": 100.0 * sum(r["f1"] for r in subset) / n,
                        "precision": 100.0 * sum(r["precision"] for r in subset) / n,
                        "recall": 100.0 * sum(r["recall"] for r in subset) / n,
                    }
                )

    def write_csv(name, fieldnames, rows):
        with open(out_dir / name, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fieldnames)
            writer.writeheader()
            writer.writerows(rows)

    write_csv(
        "scatter.csv",
        ["run_id", "instance_id", "k_precision", "f1", "pearson"],
        scatter_rows,
    )
    write_csv(
        "delta_hops.csv",
        ["run_id", "supporting_count", "delta_hops", "count"],
        hist_rows,
    )
    if subset_sizes:
        write_csv(
            "subsets.csv",
            ["run_id", "size", "em", "f1", "precision", "recall"],
            subset_rows,
        )


@click.group()
def main() -> None:
    """Greedy passage-sequence selection for multi-hop QA."""


@main.command("run")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--run-dir", required=True, type=click.Path())
@click.option("--dataset", default=None)
@click.option("--variant", default=None)
@click.option("--limit", default=None, type=int)
@click.option("--concurrency", default=None, type=int)
@click.option("--cache-dir", default=None, type=click.Path())
@click.option("--backend-generator-url", "generator_url", default=None)
@click.option("--backend-scorer-url", "scorer_url", default=None)
def cmd_run(config_path, run_dir, **overrides) -> None:
    """Run a pipeline or baseline over a dataset (resumable)."""
    try:
        cfg = load_config(config_path, overrides)
        code = run_batch(cfg, run_dir)
    except (
        ConfigError,
        CorruptTrace,
        datasets.ParseError,
        datasets.SchemaError,
        datasets.SizeTooLarge,
        ValidationError,
    ) as exc:
        click.echo(f"fatal: {exc}", err=True)
        sys.exit(2)
    sys.exit(code)


@main.command("eval")
@click.argument("run_dir", type=click.Path(exists=True))
def cmd_eval(run_dir) -> None:
    """Compute metric reports for a finished run."""
    try:
        report = evaluate_run(run_dir)
    except CorruptTrace as exc:
        click.echo(f"fatal: {exc}", err=True)
        sys.exit(2)
    for name, value in sorted(report.percents.items()):
        click.echo(f"{name}: {value:.2f}")
    sys.exit(0)


def _subset_sizes(ctx, param, value: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(s) for s in value.split(",") if s.strip())
        if all(size >= 1 for size in sizes):
            return sizes
    except ValueError:
        pass
    raise click.BadParameter(f"{value!r} is not a comma-separated list of positive integers")


@main.command("plotdata")
@click.argument("run_dirs", nargs=-1, required=True, type=click.Path(exists=True))
@click.option("--out-dir", required=True, type=click.Path())
@click.option(
    "--subset-sizes", default="", callback=_subset_sizes, help="comma-separated subset sizes"
)
@click.option("--seed", default=0, type=int)
def cmd_plotdata(run_dirs, out_dir, subset_sizes, seed) -> None:
    """Emit scatter/histogram/subset tables for evaluated runs."""
    try:
        emit_plotdata(run_dirs, out_dir, subset_sizes, seed)
    except CorruptTrace as exc:
        click.echo(f"fatal: {exc}", err=True)
        sys.exit(2)
    sys.exit(0)


if __name__ == "__main__":
    main()
