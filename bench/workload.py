"""One measured workload process: ``python3 bench/workload.py JOB.json``.

The job file (written by ``run.py``) names a gensco config, a work
directory and a time budget. The process repeats rounds until the budget
is spent. A round is:

- pass 0: ``cli.run_batch`` into a fresh run dir. With a disk cache it
  starts from an empty cache dir, so every call is a put;
- pass 1, with a disk cache only: ``cli.run_batch`` into another fresh
  run dir against pass 0's filled cache, so every call is a get. (The
  memory cache does not outlive a pass, so there a warm pass would be
  a first pass again.)
- set-up: ``cli.run_batch`` on pass 0's finished run dir, which skips
  every instance;
- evaluation: ``cli.evaluate_run`` on that run dir.

It writes what it measured to the job's result file and judges nothing;
``run.py`` does. The only wrapper an untraced run installs times each
``run_instance`` call. With ``trace`` set, rounds alternate traced and
untraced; collected garbage is cleared before every timed call.
"""

from __future__ import annotations

import gc
import hashlib
import http.client
import json
import resource
import shutil
import sys
import time
from pathlib import Path
from urllib.parse import urlsplit

from gensco import cli
from gensco.models import read_jsonl

import tracer as tracing

TRACED_ROUNDS = 4


def run_digests(run_dir, lines=None) -> dict[str, str]:
    """sha256 of the instances and traces files and of each answer's
    (instance_id, predicted_answer, context_order, permutation); of the
    first ``lines`` records only, when given."""
    run_dir = Path(run_dir)
    out = {}
    for name in ("instances", "traces"):
        path = run_dir / f"{name}.jsonl"
        data = path.read_bytes() if path.exists() else b""
        if lines is not None:
            data = b"".join(data.splitlines(keepends=True)[:lines])
        out[name] = hashlib.sha256(data).hexdigest()
    answers_path = run_dir / "answers.jsonl"
    core = []
    if answers_path.exists():
        core = [
            [a["instance_id"], a["predicted_answer"], a["context_order"], a.get("permutation")]
            for a in read_jsonl(answers_path)
        ][:lines]
    out["answers"] = hashlib.sha256(
        json.dumps(core, ensure_ascii=False).encode("utf-8")
    ).hexdigest()
    return out


def server_stats(url):
    if not url:
        return {"posts": 0, "response_bytes": 0, "handle_ms": [], "model_ms": []}
    parts = urlsplit(url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=30)
    try:
        conn.request("GET", parts.path)
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def manifest_of(run_dir) -> dict:
    manifest = json.loads((Path(run_dir) / "manifest.json").read_text(encoding="utf-8"))
    return {
        key: manifest[key]
        for key in ("llm_calls", "instances_total", "instances_skipped", "instances_failed")
    }


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    work = Path(job["work_dir"])
    stats_url = job.get("stats_url")
    tracer = tracing.Tracer() if job["trace"] else None

    instance_s: list[float] = []
    instance_cpu_s: list[float] = []
    run_instance = cli.run_instance

    def timed_run_instance(*args, **kwargs):
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            return run_instance(*args, **kwargs)
        finally:
            instance_s.append(time.perf_counter() - t0)
            instance_cpu_s.append(time.process_time() - cpu0)

    cli.run_instance = timed_run_instance

    def round_config(r: int) -> dict:
        cfg = dict(job["config"])
        if job["disk_cache"]:
            cfg["cache_dir"] = str(work / f"cache-{r}")
        return cfg

    passes, setup, eval_s = [], [], []
    setup_digests_ok = True
    started = time.perf_counter()
    r = 0
    while r < job["min_rounds"] or time.perf_counter() - started < job["seconds"]:
        if r > 0:
            for stale in work.glob(f"*-{r - 1}"):
                shutil.rmtree(stale)
        # Spans stay in memory, so only the first few even rounds are traced.
        traced = tracer is not None and r % 2 == 0 and r < 2 * TRACED_ROUNDS
        if traced:
            tracer.install()
            tracer.phase = "run"
        cfg = round_config(r)
        for p in range(2 if job["disk_cache"] else 1):
            run_dir = work / f"run{p}-{r}"
            before = server_stats(stats_url)
            first = len(instance_s)
            gc.collect()
            t0 = time.perf_counter()
            code = cli.run_batch(cfg, run_dir)
            wall = time.perf_counter() - t0
            after = server_stats(stats_url)
            passes.append({
                "round": r,
                "pass": p,
                "traced": traced,
                "exit_code": code,
                "wall_s": wall,
                "instance_s": instance_s[first:],
                "instance_cpu_s": instance_cpu_s[first:],
                "manifest": manifest_of(run_dir),
                "failures_file": (run_dir / "failures.jsonl").exists(),
                "digests": run_digests(run_dir),
                "posts": after["posts"] - before["posts"],
                "response_bytes": after["response_bytes"] - before["response_bytes"],
                "server_ms": after["handle_ms"][len(before["handle_ms"]):] if traced else [],
                "model_ms": after["model_ms"][len(before["model_ms"]):] if traced else [],
            })
        # Set-up and evaluation are timed in every round, so that they see
        # the same mix of machine states as the passes.
        finished = work / f"run0-{r}"
        finished_digests = run_digests(finished)
        if traced:
            tracer.phase = "setup"
        for _ in range(job["setup_reps"]):
            before = server_stats(stats_url)
            gc.collect()
            t0 = time.perf_counter()
            code = cli.run_batch(cfg, finished)
            setup.append({
                "round": r,
                "traced": traced,
                "seconds": time.perf_counter() - t0,
                "exit_code": code,
                "manifest": manifest_of(finished),
                "posts": server_stats(stats_url)["posts"] - before["posts"],
            })
        setup_digests_ok &= run_digests(finished) == finished_digests
        if traced:
            tracer.phase = "eval"
        for _ in range(job["eval_reps"]):
            gc.collect()
            t0 = time.perf_counter()
            report = cli.evaluate_run(finished)
            eval_s.append({"round": r, "traced": traced, "seconds": time.perf_counter() - t0})
        if traced:
            tracer.uninstall()
        r += 1

    result = {
        "passes": passes,
        "setup": setup,
        "setup_digests_ok": setup_digests_ok,
        "eval_s": eval_s,
        "em": report.means["em"],
        "eval_count": report.count,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        run_instances = sum(len(p["instance_s"]) for p in passes if p["traced"])
        layers = tracing.layer_metrics(tracer.spans, run_instances)
        if job["disk_cache"]:
            files = list(Path(cfg["cache_dir"]).rglob("*.json"))
            layers["llm.cache.disk_bytes_per_entry"] = (
                sum(f.stat().st_size for f in files) / len(files) if files else 0.0
            )
        else:
            layers["llm.cache.disk_bytes_per_entry"] = 0.0
        result["layers"] = layers
        result["trace_missing"] = tracer.missing
        result["spans"] = len(tracer.spans)
        result["backend_calls_traced"] = sum(
            1 for span in tracer.spans if span[2] == "llm.backend" and span[5] == "run"
        )
        tracer.dump(job["spans_path"])
    Path(job["result_path"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
