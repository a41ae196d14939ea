"""Span tracing of gensco's layers, installed from outside the package.

Modules import each other's functions by name, so each function is
wrapped where its caller looks it up (``pipeline.score_level``, not
``scorer.score_level``). Span stacks are kept per thread; the thread
pools of ``cli`` and ``scorer`` are swapped for a pool that hands the
submitting thread's open span to the worker, so spans on pool threads
get the right parent. Spans stay in memory until ``dump``.

A span's self time is its duration minus the union of the intervals its
child spans cover, on any thread.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from statistics import median
from typing import Any, Callable, Optional

from gensco import cli, datasets, decomposition, llm, metrics, pipeline, scorer

TAIL_PERCENTILES = (50.0, 80.0, 90.0, 95.0, 99.0, 99.9)


def tail_percentile(n: int) -> float:
    """The highest percentile of the ladder with at least 10 samples beyond it."""
    return max(p for p in TAIL_PERCENTILES if n * (100.0 - p) / 100.0 >= 10 or p == 50.0)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def _purpose(default: str):
    def attrs(args, kwargs, result):
        return {"purpose": kwargs.get("purpose", args[2] if len(args) > 2 else default)}

    return attrs


def _chars(args, kwargs, result):
    return {"chars": len(result.text)} if result is not None else None


def _candidates(args, kwargs, result):
    return {"candidates": len(kwargs.get("candidates", args[2] if len(args) > 2 else ()))}


def _hit(args, kwargs, result):
    return {"hit": result is not None}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.phase = "run"
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    # --- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "base", 0)

    def run_under(self, parent: int, fn, *args, **kwargs):
        """Run ``fn`` on this thread as if called inside span ``parent``."""
        saved = getattr(self._local, "base", 0)
        self._local.base = parent
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.base = saved

    def wrap(self, name: str, fn: Callable, attrs: Optional[Callable] = None,
             cpu: bool = False) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.current()
            span_id = next(tracer._ids)
            stack = tracer._stack()
            stack.append(span_id)
            result = None
            cpu0 = time.thread_time() if cpu else 0.0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                extra = attrs(args, kwargs, result) if attrs else None
                if cpu:
                    extra = dict(extra or {}, cpu=time.thread_time() - cpu0)
                stack.pop()
                tracer.spans.append((span_id, parent, name, t0, t1, tracer.phase, extra))

        return traced

    # --- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, replacement: Callable) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap_attr(self, owner, attr: str, name: str, **kw) -> None:
        if attr not in owner.__dict__:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            self._patch(owner, attr, classmethod(self.wrap(name, original.__func__, **kw)))
        else:
            self._patch(owner, attr, self.wrap(name, original, **kw))

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.run_under, tracer.current(), fn, *args, **kwargs)

        return TracedPool

    def install(self) -> None:
        if self._patches:
            return
        w = self._wrap_attr
        w(cli, "run_batch", "cli.run_batch")
        w(cli, "evaluate_run", "cli.evaluate_run")
        w(cli, "run_instance", "pipeline.run_instance")
        w(cli, "append_jsonl", "models.append_jsonl")
        w(datasets, "load", "datasets.load")
        w(pipeline, "score_level", "scorer.score_level", attrs=_candidates)
        w(pipeline, "next_subquestion", "decomposition.next_subquestion")
        w(pipeline, "should_stop", "pipeline.should_stop")
        for module, fn in (
            (pipeline, "render_answer_prompt"),
            (pipeline, "render_stop_prompt"),
            (scorer, "render_scoring_prompt"),
            (decomposition, "render_decomposition_prompt"),
        ):
            w(module, fn, f"prompts.{fn}", attrs=_chars)
        w(llm.LlmGateway, "generate", "llm.gateway", attrs=_purpose("answer"))
        w(llm.LlmGateway, "score_continuation", "llm.gateway", attrs=_purpose("relevance"))
        for backend in (llm.ScriptedBackend, llm.HttpBackend):
            w(backend, "complete", "llm.backend", cpu=True)
            w(backend, "token_logprobs", "llm.backend", cpu=True)
        w(llm.ScriptedBackend, "from_file", "llm.backend.load")
        for name in ("answer_metrics", "k_precision", "retrieval_metrics", "aggregate"):
            w(metrics, name, f"metrics.{name}")
        for module in (cli, scorer):
            if "ThreadPoolExecutor" in module.__dict__:
                self._patch(module, "ThreadPoolExecutor",
                            self._pool_class(module.ThreadPoolExecutor))
        self._patch(llm.LlmGateway, "__init__", self._gateway_init(llm.LlmGateway.__init__))

    def _gateway_init(self, original):
        tracer = self

        @functools.wraps(original)
        def init(gateway, *args, **kwargs):
            original(gateway, *args, **kwargs)
            cache = gateway.cache
            cache.get = tracer.wrap("llm.cache.get", cache.get, attrs=_hit)
            cache.put = tracer.wrap("llm.cache.put", cache.put)

        return init

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, t0, t1, phase, extra in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name, "start": t0,
                    "end": t1, "phase": phase, "attrs": extra,
                }) + "\n")


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, _, t0, t1, _, _ in spans:
        if parent:
            children[parent].append((t0, t1))
    result = {}
    for span_id, _, _, t0, t1, _, _ in spans:
        covered, reach = 0.0, t0
        for c0, c1 in sorted(children.get(span_id, ())):
            c0, c1 = max(c0, reach), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        result[span_id] = (t1 - t0) - covered
    return result


def layer_metrics(spans, run_instances: int) -> dict[str, float]:
    """Per-layer metrics from traced spans; ``run_instances`` instances ran
    in the "run" phase."""
    own = self_times(spans)
    by_name: dict[tuple[str, str], list[tuple]] = defaultdict(list)
    for span in spans:
        by_name[(span[5], span[2])].append(span)

    def run(name):
        return by_name[("run", name)]

    def mean_us(group, self_time=False):
        if not group:
            return 0.0
        total = sum(own[s[0]] if self_time else s[4] - s[3] for s in group)
        return total / len(group) * 1e6

    out: dict[str, float] = {}
    n = max(run_instances, 1)
    chars = 0
    for fn in ("render_scoring_prompt", "render_stop_prompt",
               "render_decomposition_prompt", "render_answer_prompt"):
        group = run(f"prompts.{fn}")
        out[f"prompts.{fn}.us_per_call"] = mean_us(group)
        chars += sum(s[6]["chars"] for s in group if s[6])
    out["prompts.chars_per_instance"] = chars / n

    gateway = run("llm.gateway")
    out["llm.gateway.self_us_per_call"] = mean_us(gateway, self_time=True)
    for purpose in ("decomposition", "stop", "relevance", "answer"):
        out[f"llm.calls_per_instance.{purpose}"] = (
            sum(1 for s in gateway if s[6]["purpose"] == purpose) / n
        )
    gets = run("llm.cache.get")
    puts = run("llm.cache.put")
    out["llm.cache.hit_ratio"] = (
        sum(1 for s in gets if s[6]["hit"]) / len(gets) if gets else 0.0
    )
    out["llm.cache.get_us_per_call"] = mean_us(gets)
    out["llm.cache.put_us_per_call"] = mean_us(puts)

    backend = run("llm.backend")
    out["llm.backend.us_per_call"] = mean_us(backend)
    out["llm.backend.attempts_per_miss"] = len(backend) / len(puts) if puts else 0.0
    call_ms = [(s[4] - s[3]) * 1e3 for s in backend]
    if call_ms:
        out["llm.backend.call_ms_p50"] = percentile(call_ms, 50)
        out["llm.backend.call_ms_tail"] = percentile(call_ms, tail_percentile(len(call_ms)))
    out["llm.backend.client_cpu_us_per_call"] = (
        sum(s[6]["cpu"] for s in backend) / len(backend) * 1e6 if backend else 0.0
    )

    levels = run("scorer.score_level")
    out["scorer.score_level.self_us_per_level"] = mean_us(levels, self_time=True)
    out["scorer.candidates_per_level"] = (
        sum(s[6]["candidates"] for s in levels) / len(levels) if levels else 0.0
    )
    out["pipeline.run_instance.self_us_per_instance"] = mean_us(
        run("pipeline.run_instance"), self_time=True
    )
    out["pipeline.should_stop.self_us_per_call"] = mean_us(
        run("pipeline.should_stop"), self_time=True
    )
    out["pipeline.levels_per_instance"] = len(levels) / n
    out["decomposition.next_subquestion.self_us_per_call"] = mean_us(
        run("decomposition.next_subquestion"), self_time=True
    )
    out["cli.run_batch.self_ms_per_instance"] = (
        sum(own[s[0]] for s in run("cli.run_batch")) / n * 1e3
    )
    out["models.append_jsonl.us_per_record"] = mean_us(run("models.append_jsonl"))

    loads = [s for s in spans if s[2] == "datasets.load"]
    out["datasets.load.ms"] = median(s[4] - s[3] for s in loads) * 1e3 if loads else 0.0
    evals = by_name[("eval", "cli.evaluate_run")]
    out["cli.evaluate_run.self_ms"] = mean_us(evals, self_time=True) / 1e3
    metric_spans = [s for s in spans if s[5] == "eval" and s[2].startswith("metrics.")]
    evaluated = sum(
        1 for s in metric_spans if s[2] == "metrics.answer_metrics"
    )
    out["metrics.us_per_instance"] = (
        sum(s[4] - s[3] for s in metric_spans) / evaluated * 1e6 if evaluated else 0.0
    )
    return out
