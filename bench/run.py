"""Offline benchmark of gensco: seeded inputs, a deterministic fake LLM, three
workloads and correctness gates.

    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads (all ``variant: gensco-stop``, 2WikiMultiHop format, 10
passages per instance):

- ``scripted-stop``: scripted backend, memory cache. No I/O, so gensco's
  own CPU path (prompt rendering, request hashing, loop bookkeeping) is
  the whole cost.
- ``loopback-http``: ``HttpBackend`` against ``fake_server.py`` on
  127.0.0.1 in its own process, which sleeps by a latency model;
  ``scorer_concurrency: 2``. Transport and request count dominate.
- ``disk-cache``: the scripted-stop inputs with ``cache_dir`` set. The
  first pass fills an empty cache; the second reads it back with zero
  backend calls.

Each workload runs in a fresh ``workload.py`` process with a fixed,
minimal environment (``requests`` scans the environment for proxies on
every POST). With ``--trace 1`` rounds alternate traced and untraced,
and per-layer metrics are reported together with the tracing slowdown.
The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is non-zero
when any correctness gate fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median

sys.dont_write_bytecode = True

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORK = ROOT / ".bench_work"

MIN_ROUNDS = 3
# Set-up and evaluation repetitions per round.
SETUP_REPS = 3
EVAL_REPS = 3
# Latency model of the loopback fake: per POST, a fixed cost plus a cost
# per prompt token.
FIXED_MS = 1.0
PER_TOKEN_US = 2.0

# instances: per pass. Per-instance timings are minima over a run's passes,
# so each workload gets enough passes in a run to find quiet moments.
WORKLOADS = {
    "scripted-stop": {"backend": "scripted", "disk_cache": False, "scorer_concurrency": 1,
                      "instances": 200},
    "loopback-http": {"backend": "http", "disk_cache": False, "scorer_concurrency": 2,
                      "instances": 50},
    "disk-cache": {"backend": "scripted", "disk_cache": True, "scorer_concurrency": 1,
                   "instances": 200},
}
# Lines of instances, traces and answers that every workload shares.
SHARED_LINES = min(spec["instances"] for spec in WORKLOADS.values())

END_TO_END_UNITS = {
    "instance_ms_p50": "ms",
    "instance_ms_tail": "ms",
    "client_cpu_ms_per_instance": "ms",
    "backend_requests_per_instance": "count",
    "llm_calls_per_instance": "count",
    "setup_s": "s",
    "eval_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "prompts.render_scoring_prompt.us_per_call": "us",
    "prompts.render_stop_prompt.us_per_call": "us",
    "prompts.render_decomposition_prompt.us_per_call": "us",
    "prompts.render_answer_prompt.us_per_call": "us",
    "prompts.chars_per_instance": "count",
    "llm.gateway.self_us_per_call": "us",
    "llm.calls_per_instance.decomposition": "count",
    "llm.calls_per_instance.stop": "count",
    "llm.calls_per_instance.relevance": "count",
    "llm.calls_per_instance.answer": "count",
    "llm.cache.get_us_per_call": "us",
    "llm.cache.put_us_per_call": "us",
    "llm.backend.us_per_call": "us",
    "llm.backend.attempts_per_miss": "ratio",
    "llm.backend.call_ms_p50": "ms",
    "llm.backend.call_ms_tail": "ms",
    "llm.backend.client_cpu_us_per_call": "us",
    "scorer.score_level.self_us_per_level": "us",
    "scorer.candidates_per_level": "count",
    "pipeline.run_instance.self_us_per_instance": "us",
    "pipeline.should_stop.self_us_per_call": "us",
    "pipeline.levels_per_instance": "count",
    "decomposition.next_subquestion.self_us_per_call": "us",
    "cli.run_batch.self_ms_per_instance": "ms",
    "models.append_jsonl.us_per_record": "us",
    "datasets.load.ms": "ms",
    "cli.evaluate_run.self_ms": "ms",
    "metrics.us_per_instance": "us",
    "tracing.slowdown": "x",
}

# Printed only. The llm.http.* ones exist on loopback-http alone (there the
# llm.backend.* figures are those of the HTTP requests); the cache ones are 0
# wherever the cache lives in memory, which is every workload in
# BENCHMARK.json.
PRINTED_LAYER_UNITS = {
    "llm.cache.hit_ratio": "ratio",
    "llm.cache.disk_bytes_per_entry": "B",
    "llm.http.server_ms_p50": "ms",
    "llm.http.response_bytes_per_request": "B",
    "llm.http.model_share": "ratio",
}


def child_env(work: Path) -> dict[str, str]:
    """The fixed environment of every process the benchmark starts."""
    return {
        "PATH": "/usr/bin:/bin",
        "HOME": str(work),
        "LANG": "C.UTF-8",
        "LC_ALL": "C.UTF-8",
        "PYTHONHASHSEED": "0",
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONPATH": f"{SRC}{os.pathsep}{BENCH}",
    }


def machine_info() -> dict:
    import requests
    import urllib3

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "requests": requests.__version__,
        "urllib3": urllib3.__version__,
        "latency_model": {"fixed_ms": FIXED_MS, "per_prompt_token_us": PER_TOKEN_US},
    }


def prepare(work: Path, seed: int, n: int, record_script: bool):
    """Write the dataset (and script), and run the reference in process.

    The reference drives ``pipeline.run_instance`` directly through the
    in-process fake, so it needs no script and no server. Its files are
    what every measured pass must reproduce.
    """
    import fake_llm
    from gensco import datasets, pipeline, prompts
    from gensco.llm import LlmGateway, ScriptedBackend
    from gensco.models import Dataset, Variant, append_jsonl

    import workload

    records, plans = fake_llm.make_dataset(seed, n)
    dataset_path = work / "dataset.json"
    dataset_path.write_text(json.dumps(records, ensure_ascii=False), encoding="utf-8")
    instances = datasets.load(
        datasets.DatasetConfig(dataset=Dataset.TWO_WIKI, path=str(dataset_path))
    )
    script = ScriptedBackend(backend_id=fake_llm.BACKEND_ID) if record_script else None
    backend = fake_llm.FakeBackend(script)
    gateway = LlmGateway(backend, backend)
    cfg = pipeline.PipelineConfig.for_dataset(Dataset.TWO_WIKI, Variant.STOP)
    shots = prompts.load_shots(Dataset.TWO_WIKI)
    ref = work / "reference"
    ref.mkdir()
    traces = []
    with open(ref / "instances.jsonl", "w", encoding="utf-8") as inf, open(
        ref / "traces.jsonl", "w", encoding="utf-8"
    ) as tf, open(ref / "answers.jsonl", "w", encoding="utf-8") as af:
        for inst in instances:
            trace, answer = pipeline.run_instance(inst, cfg, gateway, shots)
            append_jsonl(inf, inst.to_dict())
            append_jsonl(tf, trace.to_dict())
            append_jsonl(af, answer.to_dict())
            traces.append(trace)
    if script is not None:
        script.to_file(work / "script.json")
    return {
        "dataset_path": dataset_path,
        "plans": plans,
        "traces": traces,
        "digests": workload.run_digests(ref),
        "shared_digests": workload.run_digests(ref, lines=SHARED_LINES),
    }


class FakeServer:
    def __init__(self, work: Path) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "fake_server.py"),
             "--fixed-ms", str(FIXED_MS), "--per-token-us", str(PER_TOKEN_US)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(work),
            cwd=str(work), text=True,
        )
        line = self.proc.stdout.readline()
        if not line.strip().isdigit():
            self.stop()
            raise RuntimeError("fake server did not report its port")
        self.base_url = f"http://127.0.0.1:{int(line)}"

    def stop(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_workload(name: str, seed: int, seconds: float, trace: bool, n=None) -> dict:
    spec = WORKLOADS[name]
    n = n or spec["instances"]
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    OUT.mkdir(exist_ok=True)
    server = None
    try:
        prep = prepare(work, seed, n, record_script=spec["backend"] == "scripted")
        cfg = {
            "dataset": "2wikimultihop",
            "dataset_path": str(prep["dataset_path"]),
            "variant": "gensco-stop",
            "backend": spec["backend"],
            "concurrency": 1,
            "scorer_concurrency": spec["scorer_concurrency"],
        }
        stats_url = None
        if spec["backend"] == "scripted":
            cfg["script_file"] = str(work / "script.json")
        else:
            server = FakeServer(work)
            stats_url = server.base_url + "/stats"
            cfg.update(
                generator_url=server.base_url + "/v1", generator_model="fake-generator",
                scorer_url=server.base_url + "/v1", scorer_model="fake-scorer",
            )
        job = {
            "config": cfg,
            "disk_cache": spec["disk_cache"],
            "work_dir": str(work),
            "seconds": seconds,
            "min_rounds": MIN_ROUNDS,
            "trace": trace,
            "stats_url": stats_url,
            "setup_reps": SETUP_REPS,
            "eval_reps": EVAL_REPS,
            "result_path": str(work / "result.json"),
            "spans_path": str(OUT / f"spans-{name}.jsonl"),
        }
        (work / "job.json").write_text(json.dumps(job), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, str(BENCH / "workload.py"), str(work / "job.json")],
            env=child_env(work), cwd=str(work), capture_output=True, text=True,
            timeout=seconds + 150,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"{name}: workload process failed:\n{proc.stderr}")
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(work, ignore_errors=True)
    return summarize(name, spec, result, prep, n)


def expected_totals(plans) -> dict[str, int]:
    import fake_llm

    totals: dict[str, int] = {}
    for plan in plans:
        for purpose, count in fake_llm.expected_calls(plan).items():
            totals[purpose] = totals.get(purpose, 0) + count
    return totals


def gates(spec: dict, result: dict, prep: dict, n: int) -> list[tuple[str, bool, str]]:
    """Every correctness check of one workload: (name, ok, detail)."""
    from gensco.models import replay_trace

    plans = prep["plans"]
    expected = expected_totals(plans)
    passes = result["passes"]
    out = []

    def check(name, ok, detail=""):
        out.append((name, bool(ok), detail))

    plan_ok = all(
        len(trace.levels) == (plan.stop_level - 1 if plan.stop_level else plan.depth)
        and trace.stop_reason.value == ("likelihood_stop" if plan.stop_level else "fin_keyword")
        and replay_trace(trace)
        for trace, plan in zip(prep["traces"], plans)
    )
    check("reference traces follow the fake's plans and pick each level's argmin", plan_ok)
    failed = sum(p["manifest"]["instances_failed"] for p in passes)
    check("failed_frac is 0", failed == 0 and all(
        p["exit_code"] == 0 and not p["failures_file"] for p in passes
    ), f"{failed} failed")
    mismatched = [
        f"round {p['round']} pass {p['pass']}: {key}"
        for p in passes for key, digest in p["digests"].items()
        if digest != prep["digests"][key]
    ]
    check("every pass reproduces the reference instances, traces and answers",
          not mismatched, "; ".join(mismatched[:3]))
    calls_bad = []
    for p in passes:
        calls = p["manifest"]["llm_calls"]
        got = {**calls["generator_calls"], **calls["scorer_calls"]}
        if got != expected or calls["cache_hits"] + calls["cache_misses"] != sum(expected.values()):
            calls_bad.append(f"round {p['round']} pass {p['pass']}: {got}")
    check("llm calls per purpose match the fake's depths", not calls_bad,
          f"expected {expected}; " + "; ".join(calls_bad[:2]))
    if spec["disk_cache"]:
        warm = [p for p in passes if p["pass"] == 1]
        check("warm disk-cache passes miss nothing and call no backend",
              all(p["manifest"]["llm_calls"]["cache_misses"] == 0 for p in warm))
    if spec["backend"] == "http":
        check("the fake server saw one POST per cache miss", all(
            p["posts"] == p["manifest"]["llm_calls"]["cache_misses"] for p in passes
        ))
    setup_bad = [
        s for s in result["setup"]
        if s["exit_code"] != 0 or s["posts"] != 0
        or s["manifest"]["llm_calls"]["cache_hits"] + s["manifest"]["llm_calls"]["cache_misses"]
        or s["manifest"]["instances_skipped"] != n
    ]
    check("set-up passes skip every instance and make zero LLM calls", not setup_bad)
    check("set-up passes leave the finished run unchanged", result["setup_digests_ok"])
    correct = sum(plan.correct for plan in plans)
    check("EM equals the fake's known share", result["em"] == correct / n
          and result["eval_count"] == n, f"em {result['em']} vs {correct}/{n}")
    return out


def fastest3(values) -> float:
    """Median of the three smallest values.

    On a shared VM the CPUs slow down by up to half in phases lasting
    seconds; the fastest passes of a run see the same machine state from
    run to run, where the median of all passes depends on how much of the
    run fell into a slow phase.
    """
    return median(sorted(values)[:3])


def summarize(name: str, spec: dict, result: dict, prep: dict, n: int) -> dict:
    from tracer import percentile, tail_percentile

    passes = result["passes"]
    untraced = [p for p in passes if not p["traced"]]
    first = [p for p in untraced if p["pass"] == 0]
    warm = [p for p in untraced if p["pass"] == 1] or first
    # Every first pass runs the same instances in the same order, so each
    # instance's least time (and CPU) over the run's passes is its cost on
    # a quiet machine.
    best_ms = [min(t) * 1e3 for t in zip(*(p["instance_s"] for p in first))]
    best_cpu_ms = [min(c) * 1e3 for c in zip(*(p["instance_cpu_s"] for p in first))]
    # The tail is taken over each pass's own run_instance calls, so a stall
    # in some passes and not others counts; the median over passes keeps
    # one slow phase of the machine from deciding the run.
    tail_p = tail_percentile(n)
    pass_tail_ms = [percentile(p["instance_s"], tail_p) * 1e3 for p in first]
    if spec["backend"] == "http":
        requests_per_pass = [p["posts"] for p in first]
    else:
        requests_per_pass = [p["manifest"]["llm_calls"]["cache_misses"] for p in first]
    calls = first[0]["manifest"]["llm_calls"]
    metrics = {
        "instance_ms_p50": percentile(best_ms, 50),
        "instance_ms_tail": median(pass_tail_ms),
        "client_cpu_ms_per_instance": sum(best_cpu_ms) / n,
        "backend_requests_per_instance": median(requests_per_pass) / n,
        "llm_calls_per_instance": (calls["cache_hits"] + calls["cache_misses"]) / n,
        "setup_s": median(s["seconds"] for s in result["setup"] if not s["traced"]),
        "eval_s": min(e["seconds"] for e in result["eval_s"] if not e["traced"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    # Whole-pass rates need the machine quiet for a whole pass; on a shared
    # machine they spread too widely to gate on, so they are printed only.
    printed = {
        "instances_per_s": n / fastest3(p["wall_s"] for p in first),
        "warm_instances_per_s": n / fastest3(p["wall_s"] for p in warm),
    }
    attempted = sum(p["manifest"]["instances_total"] for p in passes)
    failed = sum(p["manifest"]["instances_failed"] for p in passes)
    extra = {
        **printed,
        "failed_frac": failed / attempted,
        "instance_ms_tail_percentile": tail_p,
        "instance_ms_samples": n,
        "first_passes": len(first),
        "rounds": max(p["round"] for p in passes) + 1,
        "em": result["em"],
        "digest": hashlib.sha256(
            (prep["digests"]["traces"] + prep["digests"]["answers"]).encode()
        ).hexdigest(),
    }
    if spec["backend"] == "http":
        extra["http_requests_per_instance"] = metrics["backend_requests_per_instance"]
    summary = {
        "workload": name,
        "instances": n,
        "gates": gates(spec, result, prep, n),
        "metrics": metrics,
        "extra": extra,
        "shared_digests": prep["shared_digests"],
        "attempted": attempted,
        "failed": failed,
    }
    if "layers" in result:
        traced_first = [p for p in passes if p["traced"] and p["pass"] == 0]
        layers = dict(result["layers"])
        traced_rate = n / fastest3(p["wall_s"] for p in traced_first)
        layers["tracing.slowdown"] = printed["instances_per_s"] / traced_rate
        extra["traced_instances_per_s"] = traced_rate
        extra["trace_missing"] = result["trace_missing"]
        extra["spans"] = result["spans"]
        extra["backend_calls_traced"] = result["backend_calls_traced"]
        if spec["backend"] == "http":
            server_ms = [ms for p in traced_first for ms in p["server_ms"]]
            posts = sum(p["posts"] for p in traced_first)
            request_ms = result["backend_calls_traced"] * layers["llm.backend.us_per_call"] / 1e3
            layers.update({
                "llm.http.server_ms_p50": percentile(server_ms, 50),
                "llm.http.response_bytes_per_request": (
                    sum(p["response_bytes"] for p in traced_first) / posts
                ),
                # The latency model's share of the client's wall time per POST.
                "llm.http.model_share": (
                    sum(ms for p in traced_first for ms in p["model_ms"]) / request_ms
                ),
            })
        summary["layers"] = layers
    return summary


def print_summary(summary: dict, trace: bool) -> None:
    from tracer import tail_percentile

    print(f"== {summary['workload']}: {summary['instances']} instances per pass, "
          f"{summary['extra']['rounds']} rounds, {summary['extra']['first_passes']} "
          "untraced first passes")
    for name, value in summary["metrics"].items():
        print(f"  {name:<46} {value:14.4f} {END_TO_END_UNITS[name]}")
    extra = summary["extra"]
    for name in ("instances_per_s", "warm_instances_per_s"):
        print(f"  {name:<46} {extra[name]:14.4f} 1/s")
    print(f"  {'failed_frac':<46} {extra['failed_frac']:14.4f} ratio")
    if "http_requests_per_instance" in extra:
        print(f"  {'http_requests_per_instance':<46} "
              f"{extra['http_requests_per_instance']:14.4f} count")
    print(f"  instance_ms_tail is the median over {extra['first_passes']} passes of each "
          f"pass's p{extra['instance_ms_tail_percentile']:g} of "
          f"{extra['instance_ms_samples']} run_instance calls; EM {extra['em']:.4f}")
    if trace:
        print(f"  -- per layer ({extra['spans']} spans; traced instances_per_s "
              f"{extra['traced_instances_per_s']:.4f}; *_tail is p"
              f"{tail_percentile(extra['backend_calls_traced']):g} of "
              f"{extra['backend_calls_traced']} backend calls)")
        for name, value in summary["layers"].items():
            unit = LAYER_UNITS.get(name) or PRINTED_LAYER_UNITS.get(name, "")
            print(f"  {name:<46} {value:14.4f} {unit}")
        if extra["trace_missing"]:
            print(f"  not traced (missing): {', '.join(extra['trace_missing'])}")
    for name, ok, detail in summary["gates"]:
        print(f"  gate {'ok  ' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail and not ok else ""))
    print(f"  digest of traces and answers: {extra['digest']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Offline benchmark of gensco.")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--instances", type=int, default=None,
                        help="instances per pass for every workload (a multiple of 10)")
    args = parser.parse_args(argv)
    if not (SRC / "gensco" / "__init__.py").is_file():
        print(f"error: gensco sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]

    info = machine_info()
    print("machine: " + json.dumps(info, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = []
    for name in names:
        summary = run_workload(name, args.seed, args.seconds, bool(args.trace), args.instances)
        print_summary(summary, bool(args.trace))
        summaries.append(summary)
    correct = all(ok for s in summaries for _, ok, _ in s["gates"])
    by_name = {s["workload"]: s for s in summaries}
    if "scripted-stop" in by_name and "loopback-http" in by_name:
        same = (by_name["scripted-stop"]["shared_digests"]
                == by_name["loopback-http"]["shared_digests"])
        print(f"gate {'ok  ' if same else 'FAIL'} scripted-stop and loopback-http "
              f"write identical instances, traces and answers (first {SHARED_LINES})")
        correct = correct and same

    if len(summaries) == 1:
        key = "layers" if args.trace else "metrics"
        units = LAYER_UNITS if args.trace else END_TO_END_UNITS
        metrics = {
            name: {"value": summaries[0][key][name], "unit": unit}
            for name, unit in units.items()
        }
    else:
        metrics = {
            f"{s['workload']}.{name}": {"value": value, "unit": END_TO_END_UNITS[name]}
            for s in summaries for name, value in s["metrics"].items()
        }
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"machine": info, "summaries": summaries}, indent=1), encoding="utf-8"
    )
    print(json.dumps({
        "correct": correct,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
