"""Batch front end: run pipelines and baselines over a dataset, evaluate
finished runs offline, and emit plot-ready tables.

Run directory layout: manifest.json, instances.jsonl, traces.jsonl,
answers.jsonl, failures.jsonl (when the last invocation had failures),
report.json and report.csv after evaluation. Exit codes: 0 ok,
1 instance failures (for eval: instances without an answer), 2 fatal:
bad input, or a path the system refuses.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import operator
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import closing, suppress
from dataclasses import fields, replace
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple, Optional, Sequence

import click
import yaml

from . import baselines, datasets, metrics
from .llm import HttpBackend, LlmGateway, ScriptedBackend
from .models import (
    AnswerRecord,
    CorruptTrace,
    Dataset,
    InputError,
    MultiHopInstance,
    Variant,
    append_jsonl,
    load_json,
    read_jsonl,
)
from .pipeline import GENSCO_VARIANTS, PipelineConfig, run_instance
from .prompts import load_shots, load_shots_file
from .scorer import MAX_NLL, MIN_NLL


class ConfigError(InputError):
    pass


def load_config(path) -> dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        try:
            cfg = yaml.safe_load(fh) or {}
        except (yaml.YAMLError, UnicodeDecodeError, RecursionError) as exc:
            # RecursionError: nested past the parser's depth
            raise ConfigError(f"{path}: not valid YAML: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must be a mapping")
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
_FLOAT = _Key(
    "a finite number",
    lambda v: (_is_int(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max,
)
_BOOL = _Key("true or false", lambda v: isinstance(v, bool))

# Every config key gensco reads, with the check its value must pass and
# the variants and backend that read it. The PipelineConfig fields that
# answer_step reads (shots, temperature, max_answer_tokens, shuffle,
# shuffle_seed) apply to every variant, greedy_loop's to GenSco's only and
# ranked_loop's to the baselines.
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
    "top_k": _int(1)._replace(variants=frozenset(Variant) - GENSCO_VARIANTS),
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
    if "shuffle_seed" in cfg and cfg.get("shuffle") is not True:
        raise ConfigError("config key 'shuffle_seed' is read only with 'shuffle: true'")
    as_float = _FLOAT.accepts  # _replace keeps the check, so it marks every number key
    return {k: float(v) if _CONFIG_KEYS[k].accepts is as_float else v for k, v in cfg.items()}


def _load_file(key: str, path: str, loader: Callable[[str], Any]) -> Any:
    """``loader(path)`` for the file that config key ``key`` names; an
    unreadable or misshapen file is a ConfigError, as is JSON nested past
    the decoder's depth."""
    try:
        return loader(path)
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"config key {key!r}: cannot load {path!r}: {exc}") from exc


def _build_gateway(cfg: dict[str, Any], fan_out: Callable) -> LlmGateway:
    if cfg.get("backend", "http") == "scripted":
        script = cfg["script_file"]
        generator = scorer = _load_file("script_file", script, ScriptedBackend.from_file)
    else:
        try:
            generator = HttpBackend(cfg["generator_url"], cfg["generator_model"])
            scorer = HttpBackend(cfg["scorer_url"], cfg["scorer_model"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return LlmGateway(generator, scorer, cfg.get("cache_dir"), fan_out)


def _pipeline_config(cfg: dict[str, Any], dataset: Dataset) -> PipelineConfig:
    """The run's PipelineConfig: each field the config sets, the dataset's
    defaults for the rest."""
    present = {f.name: cfg[f.name] for f in fields(PipelineConfig) if f.name in cfg}
    return PipelineConfig.for_dataset(dataset, **{**present, "variant": Variant(cfg["variant"])})


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


def _trace_id(trace: dict[str, Any]) -> str:
    """The instance id of a trace line; a TypeError unless it is a string."""
    if type(trace["instance_id"]) is not str:
        raise TypeError(f"instance_id {trace['instance_id']!r} is not a string")
    return trace["instance_id"]


def _run_id(run_dir) -> str:
    """A run's name: its directory's, with "." and ".." resolved but a
    symlink keeping its own name."""
    return Path(os.path.abspath(run_dir)).name


def run_in_order(
    fn: Callable, items: Sequence, pool: ThreadPoolExecutor, helpers: int
) -> Iterator:
    """``fn(item)`` for each of ``items``, in item order.

    The calling thread and up to ``helpers`` tasks queued on ``pool``, no
    more than there are other items, take the items one at a time, in
    order; with no helper this is ``map(fn, items)`` on the caller and
    nothing is queued. Between its own items the caller yields every
    result that is ready in order, and once the items run out it waits for
    the helpers and yields the rest. After a failure or an interrupt no
    item starts: helper tasks not yet started are cancelled and calls in
    flight finish. Then the interrupt, or else the first failure in item
    order, is raised. No call outlives the iterator once it is exhausted
    or closed.
    """
    helpers = min(helpers, len(items) - 1)
    if helpers < 1:
        return map(fn, items)
    return _run_with_helpers(fn, items, pool, helpers)


def _run_with_helpers(
    fn: Callable, items: Sequence, pool: ThreadPoolExecutor, helpers: int
) -> Iterator:
    """``run_in_order`` with at least one helper."""
    jobs = enumerate(items)
    lock = threading.Lock()
    done: dict[int, tuple[bool, Any]] = {}  # index -> (failed, result or exception)
    first = 0  # the index of the next result to yield

    def step() -> bool:
        """Run the next item, if one may start, and store its outcome."""
        nonlocal jobs
        with lock:
            i, item = next(jobs, (-1, None))
        if i < 0:
            return False
        try:
            done[i] = False, fn(item)
        except Exception as exc:
            with lock:
                done[i] = True, exc
                jobs = iter(())
        return True

    def helper() -> None:
        while step():
            pass

    def ready() -> Iterator:
        nonlocal first
        while first in done:
            failed, value = done.pop(first)
            if failed:
                raise value
            yield value
            first += 1

    futures = [pool.submit(helper) for _ in range(helpers)]
    try:
        while step():
            yield from ready()
    finally:
        with lock:  # after an interrupt, a failure or a close, start no item
            jobs = iter(())
        for future in futures:
            future.cancel()
        wait(futures)
    for future in futures:
        if not future.cancelled():
            future.result()  # raises what escaped a helper
    yield from ready()


def run_batch(cfg: dict[str, Any], run_dir) -> int:
    """Execute (or resume) one run; returns the process exit code."""
    cfg = _check_config(cfg)
    run_dir = Path(run_dir)
    dataset = Dataset(cfg["dataset"])
    dataset_path = Path(cfg["dataset_path"])
    dataset_bytes = dataset_path.read_bytes()  # the manifest's digest is of what was loaded
    dataset_digest = hashlib.sha256(dataset_bytes).hexdigest()
    manifest_path = run_dir / "manifest.json"
    invocations = _previous_invocations(manifest_path, cfg, dataset_digest)
    instances = datasets.load(
        datasets.DatasetConfig(
            dataset=dataset, path=str(dataset_path), limit=cfg.get("limit")
        ),
        dataset_bytes,
    )
    if "shot_bank" in cfg:
        shot_bank = _load_file("shot_bank", cfg["shot_bank"], load_shots_file)
    else:
        shot_bank = load_shots(dataset)
    pipe_cfg = _pipeline_config(cfg, dataset)
    if pipe_cfg.shots > len(shot_bank):
        raise ConfigError(
            f"config key 'shots' asks for {pipe_cfg.shots} shots,"
            f" but the shot bank holds {len(shot_bank)}"
        )
    rankings = {}
    if "rankings_file" in cfg:
        path = cfg["rankings_file"]
        rankings = _load_file("rankings_file", path, baselines.load_rankings)
        for inst in instances:
            if inst.id not in rankings:
                raise ConfigError(
                    f"config key 'rankings_file': {path!r} has no ranking for {inst.id!r}"
                )
            head = rankings[inst.id][: pipe_cfg.top_k]
            if len({p.index for p in inst.passages}.intersection(head)) < len(head):
                raise ConfigError(
                    f"config key 'rankings_file': {path!r} ranks an absent or repeated passage"
                    f" in the first {pipe_cfg.top_k} of {inst.id!r}: {head}"
                )
    concurrency = cfg.get("concurrency", 1)
    scorer_concurrency = cfg.get("scorer_concurrency", 1)
    # The run's one pool has a worker for each instance helper and for each
    # helper of the Score every instance has in flight, so no queued helper
    # waits. With no helper nothing is queued, so the pool starts no thread.
    pool = ThreadPoolExecutor(
        max(concurrency * scorer_concurrency - 1, 1), thread_name_prefix="gensco"
    )
    gateway = _build_gateway(
        cfg, functools.partial(run_in_order, pool=pool, helpers=scorer_concurrency - 1)
    )

    run_dir.mkdir(parents=True, exist_ok=True)  # once every input has loaded
    traces_path = run_dir / "traces.jsonl"
    answers_path = run_dir / "answers.jsonl"
    instances_path = run_dir / "instances.jsonl"
    failures_path = run_dir / "failures.jsonl"
    whole = _cut_to_whole_instances((instances_path, traces_path, answers_path))
    kept = list(read_jsonl(traces_path, _trace_id)) if whole else []
    done = set(kept)
    if len(done) != whole:  # a blank or repeated line
        raise CorruptTrace(f"{traces_path}: {whole} lines hold {len(done)} instance ids")
    todo = [inst for inst in instances if inst.id not in done]

    manifest = {
        "run_id": _run_id(run_dir),
        "config": cfg,
        "dataset_digest": dataset_digest,
        "backends": {
            "generator": gateway.generator.backend_id,
            "scorer": gateway.scorer.backend_id,
        },
        "instances_total": len(instances),
        "invocations": invocations,
    }
    started = time.time()

    def process(inst: MultiHopInstance):
        try:
            trace, record = run_instance(inst, pipe_cfg, gateway, shot_bank, rankings.get(inst.id))
            return inst, trace.to_dict(), record.to_dict(), None
        except Exception as exc:  # noqa: BLE001 - batch isolation boundary
            return inst, None, None, f"{type(exc).__name__}: {exc}"

    failures = 0
    # Between its own instances the caller appends the records of every
    # finished instance, in instance order. failures.jsonl lists this
    # invocation's failures only.
    with closing(gateway), pool, open(traces_path, "a", encoding="utf-8") as tf, open(
        answers_path, "a", encoding="utf-8"
    ) as af, open(instances_path, "a", encoding="utf-8") as inf, open(
        failures_path, "w", encoding="utf-8"
    ) as ff:
        if todo:  # a resume of a run killed from here on is checked against it
            _write_manifest(manifest_path, manifest)
        for inst, trace_dict, answer_dict, error in run_in_order(
            process, todo, pool, concurrency - 1
        ):
            if error is not None:
                failures += 1
                append_jsonl(ff, {"instance_id": inst.id, "error": error})
                continue
            append_jsonl(inf, inst.to_dict())
            append_jsonl(tf, trace_dict)
            append_jsonl(af, answer_dict)
            kept.append(inst.id)
    if failures == 0:
        failures_path.unlink()
    # A resume that filled a hole appended it last. traces.jsonl is sorted
    # last, so a run killed before its replace is sorted again on resume.
    rank = {inst.id: i for i, inst in enumerate(instances)}
    ranks = [rank.get(i, len(rank)) for i in kept]
    if ranks != sorted(ranks):
        for path, key in ((instances_path, "id"), (answers_path, "instance_id"),
                          (traces_path, "instance_id")):
            _sort_run_file(path, key, rank)

    invocation = {
        "started": started,
        "finished": time.time(),
        "instances_skipped": len(instances) - len(todo),
        "instances_failed": failures,
        "llm_calls": gateway.stats(),
    }
    _write_manifest(
        manifest_path, {**manifest, **invocation, "invocations": invocations + [invocation]}
    )
    return 1 if failures else 0


def _sort_run_file(path: Path, key: str, rank: dict[str, int]) -> None:
    """Rewrite the JSON-lines run file ``path`` with its lines ordered by
    the ``rank`` of their ``key`` field (unranked ones last), through a
    temporary file and one atomic replace."""
    lines = path.read_bytes().splitlines(keepends=True)
    try:
        lines.sort(key=lambda line: rank.get(load_json(line)[key], len(rank)))
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise CorruptTrace(f"{path}: a line without an instance id ({exc!r})") from exc
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(b"".join(lines))
    os.replace(tmp, path)


def _read_manifest(path: Path) -> dict[str, Any]:
    """A run's manifest; CorruptTrace unless it is a JSON object."""
    try:
        manifest = load_json(path.read_bytes())
    except (ValueError, RecursionError) as exc:
        raise CorruptTrace(f"{path}: unreadable ({exc})") from exc
    if type(manifest) is not dict:
        raise CorruptTrace(f"{path}: unreadable (a JSON {type(manifest).__name__}, not an object)")
    return manifest


def _write_manifest(path: Path, manifest: dict[str, Any]) -> None:
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# The config keys a resume may change: no record depends on them.
_RESUMABLE_KEYS = frozenset({"limit", "concurrency", "scorer_concurrency", "cache_dir"})


def _previous_invocations(
    manifest_path: Path, cfg: dict[str, Any], dataset_digest: str
) -> list[dict[str, Any]]:
    """The invocations listed by the run's earlier manifest, if any. A
    ConfigError names the config keys other than _RESUMABLE_KEYS whose
    values differ from the earlier run's, or a dataset whose bytes do."""
    if not manifest_path.exists():
        return []
    manifest = _read_manifest(manifest_path)
    invocations = manifest.get("invocations", [])
    earlier = manifest.get("config")
    if type(invocations) is not list:
        raise CorruptTrace(f"{manifest_path}: 'invocations' is not a list: {invocations!r}")
    if type(earlier) is not dict:
        raise CorruptTrace(f"{manifest_path}: 'config' is not a mapping: {earlier!r}")
    changed = sorted(
        key for key in (cfg.keys() | earlier.keys()) - _RESUMABLE_KEYS
        if cfg.get(key) != earlier.get(key)
    )
    if changed:
        raise ConfigError(
            f"{manifest_path}: the run was made with other values of config keys {changed};"
            f" a resume may change only {', '.join(sorted(_RESUMABLE_KEYS))}"
        )
    if manifest.get("dataset_digest") != dataset_digest:
        raise ConfigError(
            f"{manifest_path}: the run was made from other dataset bytes than"
            f" {cfg['dataset_path']} holds now"
        )
    return invocations


def _eval_rows(run_dir: Path) -> list[metrics.InstanceEval]:
    """The report row of each answer of a finished run, from its run files."""
    traces_path = run_dir / "traces.jsonl"
    answers_path = run_dir / "answers.jsonl"
    instances_path = run_dir / "instances.jsonl"
    instances = {
        inst.id: inst for inst in read_jsonl(instances_path, MultiHopInstance.from_dict)
    }
    traced = set(read_jsonl(traces_path, _trace_id))
    answers = list(read_jsonl(answers_path, AnswerRecord.from_dict))
    if not answers:
        raise CorruptTrace(f"{answers_path}: no answer records")

    rows: list[metrics.InstanceEval] = []
    for answer in answers:
        inst = instances.get(answer.instance_id)
        if inst is None or answer.instance_id not in traced:
            raise CorruptTrace(
                f"answer for {answer.instance_id!r} has no matching instance/trace"
            )
        try:
            passages = [inst.passage_by_index(i).body for i in answer.context_order]
        except KeyError as exc:
            raise CorruptTrace(
                f"{answers_path}: the context_order of {answer.instance_id!r}"
                f" names an absent passage {exc}"
            ) from exc
        # The selection as a shuffle reordered it: retrieval reads only its set and length.
        rows.append(metrics.evaluate_instance(
            answer.instance_id,
            answer.predicted_answer,
            inst.gold_answer,
            passages,
            answer.context_order,
            inst.supporting_indices,
        ))
    return rows


# A per-instance row at its depth in report.json: each key on its own line.
_ROW_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": "))


def _report_json(payload: dict[str, Any]) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True) + "\n"``. Its
    ``per_instance`` rows, flat objects of scalars with at least one key,
    go through the C encoder, which ``indent`` would bypass."""
    rows = payload["per_instance"]
    text = json.dumps({**payload, "per_instance": []}, indent=2, sort_keys=True)
    if rows:
        objects = "\n    },\n    {\n      ".join(_ROW_ENCODER.encode(r)[1:-1] for r in rows)
        text = text.replace(
            '\n  "per_instance": []',
            '\n  "per_instance": [\n    {\n      ' + objects + "\n    }\n  ]",
            1,
        )
    return text + "\n"


def evaluate_run(run_dir) -> metrics.EvalReport:
    """Recompute the metric report for a finished run, offline, and count
    the instances of its manifest's ``instances_total`` without an answer."""
    run_dir = Path(run_dir)
    rows = _eval_rows(run_dir)
    manifest_path = run_dir / "manifest.json"
    total = _read_manifest(manifest_path).get("instances_total")
    if not _is_int(total) or total < 0:
        raise CorruptTrace(f"{manifest_path}: 'instances_total' is not a count: {total!r}")
    report = replace(metrics.aggregate(rows), instances_missing=max(total - len(rows), 0))
    payload = {
        "count": report.count,
        "instances_total": total,
        "instances_missing": report.instances_missing,
        "means": report.means,
        "percents": report.percents,
        "delta_hops_hist": {
            str(k): {str(d): n for d, n in v.items()} for k, v in report.delta_hops_hist.items()
        },
        "per_instance": [vars(r) for r in rows],
    }
    (run_dir / "report.json").write_text(_report_json(payload), encoding="utf-8")
    names = [f.name for f in fields(metrics.InstanceEval)]
    with open(run_dir / "report.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows(map(operator.attrgetter(*names), rows))
    return report


def emit_plotdata(run_dirs, out_dir, subset_sizes=(), seed: int = 0) -> None:
    """Write scatter, delta-hops histogram and subset tables for finished runs."""
    run_dirs = [Path(run_dir) for run_dir in run_dirs]
    named: dict[str, Path] = {}
    for run_dir in run_dirs:  # the tables tell runs apart by name alone
        run_id = _run_id(run_dir)
        first = named.setdefault(run_id, run_dir)
        if first is not run_dir:
            raise CorruptTrace(f"{first} and {run_dir}: two runs named {run_id!r}")
    scatter = [("run_id", "instance_id", "k_precision", "f1", "pearson")]
    delta_hops = [("run_id", "supporting_count", "delta_hops", "count")]
    subsets = [("run_id", "size", *metrics.ANSWER_FIELDS)]
    for run_id, run_dir in named.items():
        rows = _eval_rows(run_dir)
        r_value = ""
        if len(rows) >= 2:
            with suppress(metrics.DegenerateVariance):
                r_value = metrics.pearson([r.k_precision for r in rows], [r.f1 for r in rows])
        scatter += [(run_id, r.instance_id, r.k_precision, r.f1, r_value) for r in rows]
        hist = metrics.aggregate(rows).delta_hops_hist
        # report.json's order: its keys sorted as strings, "11" before "2".
        for support in sorted(hist, key=str):
            for delta in sorted(hist[support], key=str):
                delta_hops.append((run_id, support, delta, hist[support][delta]))
        for subset in datasets.subsample(rows, subset_sizes, seed):
            sums = [sum(getattr(r, name) for r in subset) for name in metrics.ANSWER_FIELDS]
            subsets.append((run_id, len(subset), *(100.0 * s / len(subset) for s in sums)))
    tables = {"scatter.csv": scatter, "delta_hops.csv": delta_hops}
    if subset_sizes:
        tables["subsets.csv"] = subsets
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)  # once every run has been read
    for name, table in tables.items():
        with open(out_dir / name, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(table)


def _or_exit_2(fn: Callable, *args) -> Any:
    """``fn(*args)``; an input error, or an OSError on a path the system
    refuses, is a ``fatal:`` line and exit code 2. An OSError on no path,
    a bug or a transport fault rather than bad input, propagates."""
    try:
        return fn(*args)
    except OSError as exc:
        if exc.filename is None:
            raise
        click.echo(f"fatal: {exc.filename}: {exc.strerror}", err=True)
    except InputError as exc:
        click.echo(f"fatal: {exc}", err=True)
    sys.exit(2)


@click.group()
def main() -> None:
    """Greedy passage-sequence selection for multi-hop QA."""


@main.command("run")
@click.option("--config", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--run-dir", required=True, type=click.Path())
@click.option("--limit", default=None, type=int)
def cmd_run(config, run_dir, limit) -> None:
    """Run a pipeline or baseline over a dataset (resumable)."""
    cfg = _or_exit_2(load_config, config)
    if limit is not None:
        cfg["limit"] = limit
    sys.exit(_or_exit_2(run_batch, cfg, run_dir))


@main.command("eval")
@click.argument("run_dir", type=click.Path(exists=True))
def cmd_eval(run_dir) -> None:
    """Compute metric reports for a finished run; exit 1 when an instance
    of the run has no answer."""
    report = _or_exit_2(evaluate_run, run_dir)
    for name, value in sorted(report.percents.items()):
        click.echo(f"{name}: {value:.2f}")
    if report.instances_missing:
        click.echo(f"instances_missing: {report.instances_missing}", err=True)
    sys.exit(1 if report.instances_missing else 0)


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
    """Emit scatter/histogram/subset tables for finished runs."""
    _or_exit_2(emit_plotdata, run_dirs, out_dir, subset_sizes, seed)
    sys.exit(0)


if __name__ == "__main__":
    main()
