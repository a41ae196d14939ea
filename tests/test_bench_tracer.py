"""The benchmark's traced mode still runs offline against src/gensco.

bench/tracer.py wraps gensco functions by the names their callers look
them up under, and reads what some of them return (a rendered prompt's
``text``). A change that moves a traced name or changes such a shape then
fails here, and not only in a ``--trace 1`` benchmark run.
"""

import importlib.util
from pathlib import Path

from gensco import cli
from gensco.models import Variant

from test_cli import make_run_config

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

# Names the tracer still wraps that src/gensco no longer has, since the
# greedy loop became one generator; the benchmark's next change re-points
# or drops them. No other name may go missing.
STALE = {
    "gensco.pipeline.score_level",
    "gensco.pipeline.next_subquestion",
    "gensco.pipeline.should_stop",
    "gensco.scorer.render_scoring_prompt",
    "gensco.decomposition.render_decomposition_prompt",
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_and_eval_of_a_scripted_batch(tmp_path):
    tracing = load_tracer()
    cfg = make_run_config(tmp_path, 2, Variant.STOP, scorer_concurrency=2)
    run_dir = tmp_path / "run"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.phase = "run"
        code = cli.run_batch(cfg, run_dir)
        tracer.phase = "eval"
        cli.evaluate_run(run_dir)
    finally:
        tracer.uninstall()
    assert code == 0
    assert set(tracer.missing) <= STALE
    layers = tracing.layer_metrics(tracer.spans, 2)
    assert layers["llm.calls_per_instance.answer"] == 1
    # evaluate_instance calls the metrics through the names the tracer wraps.
    assert layers["metrics.us_per_instance"] > 0


def test_instances_on_pool_workers_are_traced_under_the_run(tmp_path):
    # The tracer hands the open span to pool workers only through the pool
    # it swaps in as cli.ThreadPoolExecutor: a pool made another way leaves
    # the instances it runs without a parent.
    tracing = load_tracer()
    cfg = make_run_config(tmp_path, 4, Variant.STOP, concurrency=2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.run_batch(cfg, tmp_path / "run")
    finally:
        tracer.uninstall()
    assert code == 0
    names = {span[0]: span[2] for span in tracer.spans}
    parents = [names.get(span[1]) for span in tracer.spans if span[2] == "pipeline.run_instance"]
    assert parents == ["cli.run_batch"] * 4
