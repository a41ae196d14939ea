import errno
import hashlib
import json
import os
import re
import sys
import threading
import time
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import helpers
from gensco import baselines, cli, llm, metrics, models
from gensco.datasets import DatasetConfig, load
from gensco.llm import HttpBackend, ScriptedBackend
from gensco.models import Dataset, Variant
from gensco.pipeline import PipelineConfig
from gensco.prompts import load_shots

from helpers import (
    InFlight,
    ScriptedPlan,
    build_instance_script,
    build_synthetic_script,
    replies_for,
    synthetic_record,
    synthetic_requests,
    write_synthetic_dataset,
)


def make_run_config(tmp_path, n_instances, variant=Variant.MAX, **extra):
    """Write a synthetic dataset plus a matching scripted backend to disk."""
    data_path = tmp_path / "synthetic.json"
    write_synthetic_dataset(data_path, n_instances)
    instances = load(DatasetConfig(Dataset.SYNTHETIC, str(data_path)))
    pipe_cfg = PipelineConfig.for_dataset(Dataset.SYNTHETIC, variant)
    # No-QD has no FIN to end on: it may select at each of max_levels levels.
    n_levels = pipe_cfg.max_levels if variant is Variant.NO_QD else 3
    backend = build_synthetic_script(instances, pipe_cfg, n_levels)
    script_path = tmp_path / "script.json"
    backend.to_file(script_path)
    cfg = {
        "dataset": "synthetic",
        "dataset_path": str(data_path),
        "variant": variant.value,
        "backend": "scripted",
        "script_file": str(script_path),
    }
    cfg.update(extra)
    return cfg


# For each instance of make_run_config(tmp_path, 4, Variant.STOP) served by
# the loopback stub: POSTs, request body bytes, reply body bytes, JSON
# documents the gateway decoded, and bytes scanned for long digit runs.
PINNED_WORK = {
    "0": (18, 9898, 5231, 18, 0),
    "1": (10, 5597, 2387, 10, 0),
    "2": (24, 13574, 7225, 24, 0),
    "3": (18, 9898, 5186, 18, 0),
}

# For each instance of the same batch with a cache_dir: its ResponseCache
# gets and puts on an empty cache, then on the cache that pass filled.
PINNED_CACHE_WORK = {
    "0": (18, 18, 18, 0),
    "1": (10, 10, 10, 0),
    "2": (24, 24, 24, 0),
    "3": (18, 18, 18, 0),
}


def running_instance(monkeypatch):
    """A one-slot list that holds, while cli.run_instance runs syn-<i>, its
    <i> as a string, and None between instances."""
    running, run_instance = [None], cli.run_instance

    def counted(inst, *args):
        running[0] = str(int(inst.id.split("-")[1]))
        try:
            return run_instance(inst, *args)
        finally:
            running[0] = None

    monkeypatch.setattr(cli, "run_instance", counted)
    return running


def read_bytes(run_dir, name):
    return (Path(run_dir) / name).read_bytes()


def synthetic_server(serve, cfg, hold=0.0, **kwargs):
    """A loopback stub that answers the batch of ``cfg`` (a config from
    make_run_config) as its script does, each reply held ``hold`` seconds."""
    instances = load(DatasetConfig(Dataset.SYNTHETIC, cfg["dataset_path"]))
    pipe_cfg = PipelineConfig.for_dataset(Dataset.SYNTHETIC, Variant(cfg["variant"]))
    return serve(replies_for(synthetic_requests(instances, pipe_cfg), hold), **kwargs)


def http_config(cfg, server):
    """``cfg`` with the stub ``server`` as its generator and scorer."""
    kept = {key: value for key, value in cfg.items() if key not in ("backend", "script_file")}
    return {
        **kept, "backend": "http", "generator_url": server.url, "generator_model": "m",
        "scorer_url": server.url, "scorer_model": "m",
    }


def relevance_prompt(cfg, i):
    """The echo prompt of the first relevance request of syn-<i> in the
    batch of ``cfg`` (a config from make_run_config)."""
    instances = load(DatasetConfig(Dataset.SYNTHETIC, cfg["dataset_path"]))
    pipe_cfg = PipelineConfig.for_dataset(Dataset.SYNTHETIC, Variant(cfg["variant"]))
    req = next(
        request.requests[0] for request, _ in synthetic_requests(instances[i:i + 1], pipe_cfg)
        if request.purpose == "relevance"
    )
    return req.prompt + req.continuation


def with_faults(server, faults):
    """Make ``server`` answer a POST whose prompt ``faults`` lists with the
    listed replies first, in turn, and then as before."""
    answer, pending = server.reply, {prompt: list(replies) for prompt, replies in faults.items()}

    def reply(body):
        queue = pending.get(body["prompt"])
        return queue.pop(0) if queue else answer(body)

    server.reply = reply
    return pending


def topic(body):
    """The topic of the synthetic instance whose request ``body`` is: every
    prompt of syn-<i> holds its question or a sub-question, which end in
    "for topic <i>?"."""
    return re.findall(r"for topic (\d+)\?", body["prompt"])[-1]


def answer_cores(run_dir):
    return [
        (a["instance_id"], a["predicted_answer"], a["context_order"])
        for a in map(json.loads, read_bytes(run_dir, "answers.jsonl").splitlines())
    ]


class TestRunBatch:
    def test_end_to_end_layout_and_counts(self, tmp_path):
        cfg = make_run_config(tmp_path, 3)
        run_dir = tmp_path / "run"
        assert cli.run_batch(cfg, run_dir) == 0
        for name in ("manifest.json", "instances.jsonl", "traces.jsonl", "answers.jsonl"):
            assert (run_dir / name).exists()
        assert not (run_dir / "failures.jsonl").exists()
        traces = [json.loads(l) for l in (run_dir / "traces.jsonl").read_text().splitlines()]
        answers = [json.loads(l) for l in (run_dir / "answers.jsonl").read_text().splitlines()]
        assert len(traces) == len(answers) == 3
        assert [t["instance_id"] for t in traces] == ["syn-000", "syn-001", "syn-002"]

    def test_manifest_contents(self, tmp_path):
        cfg = make_run_config(tmp_path, 3)
        run_dir = tmp_path / "run"
        cli.run_batch(cfg, run_dir)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["run_id"] == "run"
        assert manifest["instances_total"] == 3
        assert manifest["instances_failed"] == 0
        assert manifest["instances_skipped"] == 0
        assert manifest["backends"] == {"generator": "scripted", "scorer": "scripted"}
        assert manifest["llm_calls"]["generator_calls"]["answer"] == 3
        assert len(manifest["dataset_digest"]) == 64

    def test_dataset_digest_is_of_the_bytes_the_run_loaded(self, tmp_path, monkeypatch):
        cfg = make_run_config(tmp_path, 2)
        path = Path(cfg["dataset_path"])
        loaded = path.read_bytes()
        run_instance = cli.run_instance

        def edit_then_run(*args):
            path.write_text("[]")  # the file changes while the run is in progress
            return run_instance(*args)

        monkeypatch.setattr(cli, "run_instance", edit_then_run)
        assert cli.run_batch(cfg, tmp_path / "run") == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["dataset_digest"] == hashlib.sha256(loaded).hexdigest()

    def test_run_dir_given_as_dot_or_a_link_keeps_its_name(self, tmp_path, monkeypatch):
        cfg = make_run_config(tmp_path, 1)
        run_dir = tmp_path / "exp1"
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        assert cli.run_batch(cfg, ".") == 0
        assert json.loads((run_dir / "manifest.json").read_text())["run_id"] == "exp1"
        (tmp_path / "exp2").mkdir()
        (tmp_path / "latest").symlink_to(tmp_path / "exp2")
        assert cli.run_batch(cfg, tmp_path / "latest") == 0
        manifest = json.loads((tmp_path / "exp2" / "manifest.json").read_text())
        assert manifest["run_id"] == "latest"

    def test_deterministic_across_fresh_runs(self, tmp_path):
        cfg = make_run_config(tmp_path, 5)
        cli.run_batch(cfg, tmp_path / "a")
        cli.run_batch(cfg, tmp_path / "b")
        for name in ("instances.jsonl", "traces.jsonl", "answers.jsonl"):
            assert read_bytes(tmp_path / "a", name) == read_bytes(tmp_path / "b", name)

    def test_concurrency_preserves_output_order(self, tmp_path):
        cfg = make_run_config(tmp_path, 8)
        cli.run_batch(cfg, tmp_path / "serial")
        cli.run_batch({**cfg, "concurrency": 4}, tmp_path / "parallel")
        for name in ("traces.jsonl", "answers.jsonl"):
            assert read_bytes(tmp_path / "serial", name) == read_bytes(
                tmp_path / "parallel", name
            )

    def test_scorer_calls_in_flight_bounded_per_instance(self, tmp_path, monkeypatch):
        cfg = make_run_config(
            tmp_path, 6, variant=Variant.STOP, concurrency=2, scorer_concurrency=2
        )
        flight = InFlight(hold=0.002)
        monkeypatch.setattr(
            ScriptedBackend, "token_logprobs", flight.wrap(ScriptedBackend.token_logprobs)
        )
        threads_before = threading.active_count()
        assert cli.run_batch(cfg, tmp_path / "run") == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert flight.finished == sum(manifest["llm_calls"]["scorer_calls"].values())
        # A scripted backend answers one call at a time, so each instance has one in flight.
        assert flight.peak <= 2
        # The pool's worker threads end with the run.
        deadline = time.monotonic() + 5
        while threading.active_count() > threads_before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert threading.active_count() <= threads_before

    @pytest.mark.parametrize("scorer_concurrency", [1, 2, 3])
    def test_an_instance_keeps_at_most_scorer_concurrency_posts_in_flight_from_its_thread(
        self, tmp_path, serve, monkeypatch, scorer_concurrency
    ):
        # Two instances at a time against a loopback stub that holds each
        # reply, so that the POSTs of one Score overlap.
        cfg = make_run_config(
            tmp_path, 4, variant=Variant.STOP, concurrency=2,
            scorer_concurrency=scorer_concurrency,
        )
        assert cli.run_batch(cfg, tmp_path / "scripted") == 0
        server = synthetic_server(serve, cfg, hold=0.003, flight_key=topic)
        owners, writers = {}, []
        run_instance, send = cli.run_instance, HttpBackend._send

        def owned(inst, *args):
            owners[threading.current_thread()] = str(int(inst.id.split("-")[1]))
            return run_instance(inst, *args)

        def recorded(backend, data):
            writers.append((owners.get(threading.current_thread()), topic(json.loads(data))))
            return send(backend, data)

        monkeypatch.setattr(cli, "run_instance", owned)
        monkeypatch.setattr(HttpBackend, "_send", recorded)
        assert cli.run_batch(http_config(cfg, server), tmp_path / "http") == 0
        assert len(writers) == len(server.requests)
        assert [owner for owner, _ in writers] == [post for _, post in writers]
        assert set(server.peak) == {"0", "1", "2", "3"}
        assert max(server.peak.values()) == scorer_concurrency
        assert read_bytes(tmp_path / "http", "traces.jsonl") == read_bytes(
            tmp_path / "scripted", "traces.jsonl"
        )
        assert answer_cores(tmp_path / "http") == answer_cores(tmp_path / "scripted")

    def test_work_per_instance_is_pinned(self, tmp_path, serve, monkeypatch):
        # Exact counts, where timings are noise: for each instance of a fixed
        # gensco-stop batch, its POSTs, request body bytes and reply body
        # bytes, the JSON documents the gateway decodes, and the bytes the
        # exact decoder scans for integers past 64 bits.
        cfg = make_run_config(tmp_path, 4, variant=Variant.STOP, scorer_concurrency=2)
        server = synthetic_server(serve, cfg)
        running, decoded, scanned = running_instance(monkeypatch), Counter(), Counter()
        load_json = llm.load_json
        long_digit_run = models._long_digit_run

        def counted_load(raw, *args, **kwargs):
            decoded[running[0]] += 1
            return load_json(raw, *args, **kwargs)

        def counted_scan(raw):
            scanned[running[0]] += len(raw)
            return long_digit_run(raw)

        monkeypatch.setattr(llm, "load_json", counted_load)
        monkeypatch.setattr(models, "_long_digit_run", counted_scan)
        assert cli.run_batch(http_config(cfg, server), tmp_path / "run") == 0
        posts, sent, replied = Counter(), Counter(), Counter()
        for raw, size in server.exchanges:
            posts[topic(json.loads(raw))] += 1
            sent[topic(json.loads(raw))] += len(raw)
            replied[topic(json.loads(raw))] += size
        work = {
            i: (posts[i], sent[i], replied[i], decoded[i], scanned[i])
            for i in sorted(posts)
        }
        assert work == PINNED_WORK
        assert None not in decoded  # no reply is decoded outside an instance

    def test_cache_work_per_instance_is_pinned(self, tmp_path, serve, monkeypatch):
        # The batch of test_work_per_instance_is_pinned with a cache_dir, run
        # twice on one cache. Each call looks its entry up once; each miss is
        # stored once, and the warm pass stores and sends nothing.
        cfg = make_run_config(
            tmp_path, 4, variant=Variant.STOP, scorer_concurrency=2,
            cache_dir=str(tmp_path / "cache"),
        )
        server = synthetic_server(serve, cfg)
        running, gets, puts = running_instance(monkeypatch), Counter(), Counter()
        get, put = llm.ResponseCache.get, llm.ResponseCache.put

        def counted_get(cache, key):
            gets[running[0]] += 1
            return get(cache, key)

        def counted_put(cache, key, value):
            puts[running[0]] += 1
            return put(cache, key, value)

        monkeypatch.setattr(llm.ResponseCache, "get", counted_get)
        monkeypatch.setattr(llm.ResponseCache, "put", counted_put)
        passes = []
        for name in ("cold", "warm"):
            gets.clear()
            puts.clear()
            posts = len(server.exchanges)
            assert cli.run_batch(http_config(cfg, server), tmp_path / name) == 0
            calls = json.loads(read_bytes(tmp_path / name, "manifest.json"))["llm_calls"]
            total = sum(calls["generator_calls"].values()) + sum(calls["scorer_calls"].values())
            assert sum(gets.values()) == total and None not in gets
            assert sum(puts.values()) == calls["cache_misses"] and None not in puts
            passes.append((gets.copy(), puts.copy(), len(server.exchanges) - posts))
        (cold_gets, cold_puts, cold_posts), (warm_gets, warm_puts, warm_posts) = passes
        work = {
            i: (cold_gets[i], cold_puts[i], warm_gets[i], warm_puts[i]) for i in sorted(cold_gets)
        }
        assert work == PINNED_CACHE_WORK
        assert {i: counts[0] for i, counts in PINNED_WORK.items()} == cold_puts  # a POST a miss
        assert cold_posts == sum(cold_puts.values()) and warm_posts == 0
        assert read_bytes(tmp_path / "warm", "traces.jsonl") == read_bytes(
            tmp_path / "cold", "traces.jsonl"
        )

    def fault_free_run(self, tmp_path, serve, monkeypatch, scorer_concurrency):
        """The batch of test_work_per_instance_is_pinned run into
        tmp_path/fault-free against a stub, with retries that do not wait:
        its config and the stub."""
        monkeypatch.setattr(llm, "_RETRY_BASE_DELAY_S", 0.0)
        cfg = make_run_config(
            tmp_path, 4, variant=Variant.STOP, scorer_concurrency=scorer_concurrency
        )
        server = synthetic_server(serve, cfg)
        assert cli.run_batch(http_config(cfg, server), tmp_path / "fault-free") == 0
        return cfg, server

    @pytest.mark.parametrize("scorer_concurrency", [1, 2])
    def test_transient_faults_in_a_batch_are_retried_to_the_fault_free_run(
        self, tmp_path, serve, monkeypatch, scorer_concurrency
    ):
        # One relevance POST answered busy, one reset and one refused
        # connect: each retry costs a POST and no call.
        cfg, server = self.fault_free_run(tmp_path, serve, monkeypatch, scorer_concurrency)
        fault_free = len(server.requests)
        busy = (
            b"HTTP/1.1 503 Service Unavailable\r\n"
            b"Content-Length: 0\r\nRetry-After: 0\r\n\r\n"
        )
        faulted = {relevance_prompt(cfg, 1): [busy], relevance_prompt(cfg, 2): [helpers.RESET]}
        pending = with_faults(server, faulted)
        connect, connects = HttpBackend._connect, []

        def refused_once(backend):
            connects.append(backend)
            if len(connects) == 2:  # the scorer's first, for syn-000's first Score
                raise ConnectionRefusedError("the backend is restarting")
            return connect(backend)

        monkeypatch.setattr(HttpBackend, "_connect", refused_once)
        assert cli.run_batch(http_config(cfg, server), tmp_path / "run") == 0
        assert not (tmp_path / "run" / "failures.jsonl").exists()
        assert pending == {prompt: [] for prompt in faulted} and len(connects) > 2
        assert connects[0] is not connects[1]
        for name in ("instances.jsonl", "traces.jsonl", "answers.jsonl"):
            assert read_bytes(tmp_path / "run", name) == read_bytes(tmp_path / "fault-free", name)
        prompts = [body["prompt"] for _, _, body, _ in server.requests]
        assert Counter(prompts[fault_free:]) == Counter(prompts[:fault_free] + list(faulted))
        calls = [
            json.loads(read_bytes(tmp_path / name, "manifest.json"))["llm_calls"]
            for name in ("fault-free", "run")
        ]
        assert calls[0] == calls[1]

    @pytest.mark.parametrize("scorer_concurrency", [1, 2])
    def test_a_request_reset_three_times_fails_only_its_instance(
        self, tmp_path, serve, monkeypatch, scorer_concurrency
    ):
        cfg, server = self.fault_free_run(tmp_path, serve, monkeypatch, scorer_concurrency)
        with_faults(server, {relevance_prompt(cfg, 1): [helpers.RESET] * 3})
        run_dir = tmp_path / "run"
        assert cli.run_batch(http_config(cfg, server), run_dir) == 1
        (failure,) = map(json.loads, read_bytes(run_dir, "failures.jsonl").splitlines())
        assert failure["instance_id"] == "syn-001"
        assert failure["error"].startswith("BackendUnavailable: ")
        traces = map(json.loads, read_bytes(run_dir, "traces.jsonl").splitlines())
        assert [trace["instance_id"] for trace in traces] == ["syn-000", "syn-002", "syn-003"]
        assert cli.run_batch(http_config(cfg, server), run_dir) == 0
        assert not (run_dir / "failures.jsonl").exists()
        for name in ("instances.jsonl", "traces.jsonl", "answers.jsonl"):
            assert read_bytes(run_dir, name) == read_bytes(tmp_path / "fault-free", name)

    def test_pool_threads_end_with_the_run(self, tmp_path, monkeypatch):
        cfg = make_run_config(tmp_path, 2, variant=Variant.STOP, concurrency=2)
        flight = InFlight()  # calls held long enough for each worker to take an instance
        monkeypatch.setattr(
            ScriptedBackend, "token_logprobs", flight.wrap(ScriptedBackend.token_logprobs)
        )
        assert cli.run_batch(cfg, tmp_path / "run") == 0
        # The pool's workers run the instances and end before the run returns.
        helpers = flight.threads - {threading.current_thread()}
        assert flight.finished > 0 and helpers
        assert not any(thread.is_alive() for thread in helpers)

    def test_shared_scorer_pool_under_stress_matches_the_serial_run(self, tmp_path):
        # 4 instance threads, the workers of the run's pool, with
        # thread switches forced as often as the interpreter allows: a lost
        # counter update or a reply out of request order shows in the files
        # or counts.
        # A lost update is rare per run, so the stressed run is repeated.
        cfg = make_run_config(tmp_path, 8, variant=Variant.STOP)
        assert cli.run_batch(cfg, tmp_path / "serial") == 0
        stressed = {**cfg, "concurrency": 4, "scorer_concurrency": 4}
        rounds = 25
        codes = []

        def runs():
            for r in range(rounds):
                codes.append(cli.run_batch(stressed, tmp_path / f"stress-{r}"))

        worker = threading.Thread(target=runs, daemon=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker.start()
            worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive() and codes == [0] * rounds
        serial = json.loads(read_bytes(tmp_path / "serial", "manifest.json"))["llm_calls"]
        for r in range(rounds):
            run = tmp_path / f"stress-{r}"
            for name in ("traces.jsonl", "answers.jsonl"):
                assert read_bytes(run, name) == read_bytes(tmp_path / "serial", name)
            calls = json.loads(read_bytes(run, "manifest.json"))["llm_calls"]
            assert calls["scorer_calls"] == serial["scorer_calls"]
            assert calls["cache_misses"] == serial["cache_misses"]

    def test_concurrency_one_starts_no_thread(self, tmp_path, serve, monkeypatch):
        # Scripted, and through a loopback stub at scorer_concurrency 3: the
        # run's thread starts no thread (the stub's own thread starts its
        # handlers).
        cfg = make_run_config(
            tmp_path, 4, variant=Variant.STOP, concurrency=1, scorer_concurrency=3
        )
        assert cli.run_batch(cfg, tmp_path / "unpatched") == 0
        server = synthetic_server(serve, cfg)
        caller, start = threading.current_thread(), threading.Thread.start

        def checked(thread):
            if threading.current_thread() is caller:
                raise RuntimeError(f"thread {thread.name} started")
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", checked)
        assert cli.run_batch(cfg, tmp_path / "caller") == 0
        assert cli.run_batch(http_config(cfg, server), tmp_path / "http") == 0
        monkeypatch.undo()
        assert len(server.requests) > 0
        for name in ("instances.jsonl", "traces.jsonl", "answers.jsonl"):
            assert read_bytes(tmp_path / "caller", name) == read_bytes(
                tmp_path / "unpatched", name
            )
        assert read_bytes(tmp_path / "http", "traces.jsonl") == read_bytes(
            tmp_path / "unpatched", "traces.jsonl"
        )

    @pytest.mark.parametrize("left", [0, 1])
    def test_resume_with_at_most_one_instance_left_starts_no_thread(
        self, tmp_path, monkeypatch, left
    ):
        cfg = make_run_config(tmp_path, 3, concurrency=4)
        run_dir = tmp_path / "run"
        assert cli.run_batch({**cfg, "limit": 3 - left}, run_dir) == 0

        def start(thread):
            raise RuntimeError(f"thread {thread.name} started")

        monkeypatch.setattr(threading.Thread, "start", start)
        assert cli.run_batch(cfg, run_dir) == 0
        monkeypatch.undo()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["instances_skipped"] == 3 - left
        assert len((run_dir / "traces.jsonl").read_text().splitlines()) == 3

    def test_interrupt_while_writing_ends_the_batch_with_whole_instances(
        self, tmp_path, monkeypatch
    ):
        # The interrupt comes from the caller's write of the first
        # instance's last record, while the workers hold two later ones.
        names = ("instances.jsonl", "traces.jsonl", "answers.jsonl")
        cfg = make_run_config(
            tmp_path, 6, variant=Variant.STOP, concurrency=2, scorer_concurrency=2
        )
        fresh = tmp_path / "fresh"
        assert cli.run_batch(cfg, fresh) == 0
        both_held, interrupted = threading.Event(), threading.Event()
        started, held, finished, late, written = [], [], [], [], []
        run_instance, append_jsonl = cli.run_instance, cli.append_jsonl

        def held_until_the_interrupt(inst, *args):
            if interrupted.is_set():
                late.append(inst.id)
            started.append(inst.id)
            if inst.id != "syn-000":
                held.append(inst.id)
                if len(held) == 2:
                    both_held.set()
                interrupted.wait(5)
                time.sleep(0.1)  # still in flight when the interrupt is raised
            result = run_instance(inst, *args)
            finished.append(inst.id)
            return result

        def interrupted_after_the_first_instance(fh, record):
            append_jsonl(fh, record)
            written.append(record)
            if len(written) == len(names):
                assert both_held.wait(5)
                interrupted.set()
                raise KeyboardInterrupt

        monkeypatch.setattr(cli, "run_instance", held_until_the_interrupt)
        monkeypatch.setattr(cli, "append_jsonl", interrupted_after_the_first_instance)
        threads_before = set(threading.enumerate())
        run_dir = tmp_path / "run"
        with pytest.raises(KeyboardInterrupt):
            cli.run_batch(cfg, run_dir)
        alive = [t for t in threading.enumerate() if t not in threads_before and t.is_alive()]
        for thread in alive:
            thread.join(timeout=5)
        assert alive == []
        assert late == [] and sorted(started) == ["syn-000", "syn-001", "syn-002"]
        assert sorted(finished) == sorted(started)  # those in flight were waited for
        lines = [read_bytes(run_dir, name).splitlines(keepends=True) for name in names]
        assert len({len(kept) for kept in lines}) == 1
        for name, kept in zip(names, lines):
            assert kept == read_bytes(fresh, name).splitlines(keepends=True)[: len(kept)]
        monkeypatch.undo()
        assert cli.run_batch(cfg, run_dir) == 0
        for name in names:
            assert read_bytes(run_dir, name) == read_bytes(fresh, name), name

    def test_held_first_instance_keeps_instance_order(self, tmp_path, monkeypatch):
        cfg = make_run_config(tmp_path, 6, variant=Variant.STOP)
        assert cli.run_batch(cfg, tmp_path / "serial") == 0
        first_started, two_ahead = threading.Event(), threading.Event()
        finished = []
        run_instance = cli.run_instance

        def held_first(inst, *args):
            if inst.id == "syn-000":
                # The first instance ends after two later ones.
                first_started.set()
                assert two_ahead.wait(5)
                finished.append(inst.id)
            else:
                assert first_started.wait(5)
                finished.append(inst.id)
                if len(finished) == 2:
                    two_ahead.set()
            return run_instance(inst, *args)

        monkeypatch.setattr(cli, "run_instance", held_first)
        assert cli.run_batch({**cfg, "concurrency": 2}, tmp_path / "run") == 0
        assert finished != sorted(finished)
        for name in ("instances.jsonl", "traces.jsonl", "answers.jsonl"):
            assert read_bytes(tmp_path / "run", name) == read_bytes(tmp_path / "serial", name)

    def test_records_land_as_soon_as_they_are_in_order(self, tmp_path, monkeypatch):
        # syn-002 runs until syn-001's trace line is written: the caller
        # writes it while syn-002 is still in flight.
        cfg = make_run_config(tmp_path, 3, variant=Variant.STOP, concurrency=2)
        second_traced, waited = threading.Event(), []
        run_instance, append_jsonl = cli.run_instance, cli.append_jsonl

        def appended(fh, record):
            append_jsonl(fh, record)
            if fh.name.endswith("traces.jsonl") and record["instance_id"] == "syn-001":
                second_traced.set()

        def held(inst, *args):
            if inst.id == "syn-001":
                time.sleep(0.2)
            elif inst.id == "syn-002":
                waited.append(second_traced.wait(5))
            return run_instance(inst, *args)

        monkeypatch.setattr(cli, "run_instance", held)
        monkeypatch.setattr(cli, "append_jsonl", appended)
        assert cli.run_batch(cfg, tmp_path / "run") == 0
        assert waited == [True]

    def test_failures_file_lists_only_this_invocations_failures(self, tmp_path):
        cfg = make_run_config(tmp_path, 3)
        full_script = read_bytes(tmp_path, "script.json")
        instances = load(DatasetConfig(Dataset.SYNTHETIC, cfg["dataset_path"]))
        pipe_cfg = PipelineConfig.for_dataset(Dataset.SYNTHETIC, Variant.MAX)
        build_synthetic_script(instances[:2], pipe_cfg).to_file(cfg["script_file"])
        run_dir = tmp_path / "run"
        assert cli.run_batch(cfg, run_dir) == 1
        assert cli.run_batch(cfg, run_dir) == 1  # the resume fails again
        failures = [json.loads(l) for l in read_bytes(run_dir, "failures.jsonl").splitlines()]
        assert [f["instance_id"] for f in failures] == ["syn-002"]
        (tmp_path / "script.json").write_bytes(full_script)
        assert cli.run_batch(cfg, run_dir) == 0
        assert not (run_dir / "failures.jsonl").exists()
        manifest = json.loads(read_bytes(run_dir, "manifest.json"))
        assert [i["instances_failed"] for i in manifest["invocations"]] == [1, 1, 0]

    def test_resume_after_interruption_is_byte_identical(self, tmp_path):
        cfg = make_run_config(tmp_path, 50)
        resumed = tmp_path / "resumed"
        # First pass stops after 20 instances, second pass finishes the rest.
        assert cli.run_batch({**cfg, "limit": 20}, resumed) == 0
        assert len(read_bytes(resumed, "traces.jsonl").splitlines()) == 20
        assert cli.run_batch(cfg, resumed) == 0
        manifest = json.loads((resumed / "manifest.json").read_text())
        assert manifest["instances_skipped"] == 20
        fresh = tmp_path / "fresh"
        cli.run_batch(cfg, fresh)
        for name in ("instances.jsonl", "traces.jsonl", "answers.jsonl"):
            assert read_bytes(resumed, name) == read_bytes(fresh, name)

    def run_with_a_hole(self, tmp_path):
        """A 3-instance run whose syn-000 failed, with the full script back
        in place for its resume, and a fresh run of that script."""
        cfg = make_run_config(tmp_path, 3)
        fresh = tmp_path / "fresh"
        assert cli.run_batch(cfg, fresh) == 0
        full_script = read_bytes(tmp_path, "script.json")
        instances = load(DatasetConfig(Dataset.SYNTHETIC, cfg["dataset_path"]))
        pipe_cfg = PipelineConfig.for_dataset(Dataset.SYNTHETIC, Variant.MAX)
        build_synthetic_script(instances[1:], pipe_cfg).to_file(cfg["script_file"])
        run_dir = tmp_path / "run"
        assert cli.run_batch(cfg, run_dir) == 1
        (tmp_path / "script.json").write_bytes(full_script)
        return cfg, run_dir, fresh

    def test_resume_that_fills_a_hole_leaves_the_run_files_in_dataset_order(
        self, tmp_path, monkeypatch
    ):
        cfg, run_dir, fresh = self.run_with_a_hole(tmp_path)
        assert cli.run_batch(cfg, run_dir) == 0
        for name in ("instances.jsonl", "traces.jsonl", "answers.jsonl"):
            assert read_bytes(run_dir, name) == read_bytes(fresh, name), name
        replace, replaced = os.replace, []

        def recorded(src, dst):
            if Path(dst).name != "manifest.json":
                replaced.append(Path(dst).name)
            replace(src, dst)

        monkeypatch.setattr(os, "replace", recorded)
        assert cli.run_batch(cfg, run_dir) == 0
        assert replaced == []  # a run in order is not rewritten

    def test_resume_killed_while_sorting_sorts_again_with_nothing_to_run(
        self, tmp_path, monkeypatch
    ):
        cfg, run_dir, fresh = self.run_with_a_hole(tmp_path)
        replace, replaced = os.replace, []

        def killed_at_the_second(src, dst):
            if Path(dst).name != "manifest.json":  # a run file's
                replaced.append(Path(dst).name)
                if len(replaced) == 2:
                    raise KeyboardInterrupt
            replace(src, dst)

        monkeypatch.setattr(os, "replace", killed_at_the_second)
        with pytest.raises(KeyboardInterrupt):
            cli.run_batch(cfg, run_dir)
        assert replaced == ["instances.jsonl", "answers.jsonl"]
        monkeypatch.setattr(os, "replace", replace)
        assert read_bytes(run_dir, "traces.jsonl") != read_bytes(fresh, "traces.jsonl")
        assert cli.run_batch(cfg, run_dir) == 0
        manifest = json.loads(read_bytes(run_dir, "manifest.json"))
        assert manifest["instances_skipped"] == 3
        for name in ("instances.jsonl", "traces.jsonl", "answers.jsonl"):
            assert read_bytes(run_dir, name) == read_bytes(fresh, name), name

    def test_run_killed_while_writing_its_last_manifest_resumes_to_the_uninterrupted_files(
        self, tmp_path, monkeypatch
    ):
        # The kill comes once the file of the run's last manifest is open
        # for writing: every run file is whole.
        cfg = make_run_config(tmp_path, 3)
        fresh = tmp_path / "fresh"
        assert cli.run_batch(cfg, fresh) == 0
        path_open, opened = Path.open, []

        def killed_at_the_second_manifest(path, mode="r", *args, **kwargs):
            fh = path_open(path, mode, *args, **kwargs)
            if "w" in mode and path.name.startswith("manifest.json"):
                opened.append(path.name)
                if len(opened) == 2:
                    fh.close()
                    raise KeyboardInterrupt
            return fh

        monkeypatch.setattr(Path, "open", killed_at_the_second_manifest)
        run_dir = tmp_path / "run"
        with pytest.raises(KeyboardInterrupt):
            cli.run_batch(cfg, run_dir)
        monkeypatch.undo()
        assert len(opened) == 2
        assert cli.run_batch(cfg, run_dir) == 0
        for name in ("instances.jsonl", "traces.jsonl", "answers.jsonl"):
            assert read_bytes(run_dir, name) == read_bytes(fresh, name), name
        manifest = json.loads(read_bytes(run_dir, "manifest.json"))
        assert [i["instances_skipped"] for i in manifest["invocations"]] == [3]

    @pytest.mark.parametrize("tail", ["empty", "half", "whole"])
    @pytest.mark.parametrize("torn_file", [0, 1, 2])
    @pytest.mark.parametrize("whole_instances", [0, 1, 2, 3])
    def test_killed_run_resumes_to_the_uninterrupted_files(
        self, tmp_path, whole_instances, torn_file, tail
    ):
        # A kill after ``whole_instances`` instances, while appending the
        # next instance's record to file ``torn_file`` (the files are
        # appended in this order, each record a line).
        names = ("instances.jsonl", "traces.jsonl", "answers.jsonl")
        cfg = make_run_config(tmp_path, 4, variant=Variant.STOP)
        fresh = tmp_path / "fresh"
        assert cli.run_batch(cfg, fresh) == 0
        killed = tmp_path / "killed"
        killed.mkdir()
        for i, name in enumerate(names):
            lines = read_bytes(fresh, name).splitlines(keepends=True)
            kept = b"".join(lines[:whole_instances])
            next_line = lines[whole_instances]
            if i < torn_file or (i == torn_file and tail == "whole"):
                kept += next_line
            elif i == torn_file and tail == "half":
                kept += next_line[: len(next_line) // 2]
            (killed / name).write_bytes(kept)
        assert cli.run_batch(cfg, killed) == 0
        for name in names:
            assert read_bytes(killed, name) == read_bytes(fresh, name), name

    def test_manifest_lists_every_invocation(self, tmp_path):
        cfg = make_run_config(tmp_path, 6, variant=Variant.STOP)
        resumed = tmp_path / "resumed"
        assert cli.run_batch({**cfg, "limit": 2}, resumed) == 0
        assert cli.run_batch(cfg, resumed) == 0
        manifest = json.loads((resumed / "manifest.json").read_text())
        first, last = manifest["invocations"]
        assert (first["instances_skipped"], last["instances_skipped"]) == (0, 2)
        for key in ("started", "finished", "instances_skipped", "instances_failed", "llm_calls"):
            assert manifest[key] == last[key]
        fresh = tmp_path / "fresh"
        cli.run_batch(cfg, fresh)
        (uninterrupted,) = json.loads((fresh / "manifest.json").read_text())["invocations"]
        for table in ("generator_calls", "scorer_calls"):
            summed = Counter(first["llm_calls"][table]) + Counter(last["llm_calls"][table])
            assert summed == uninterrupted["llm_calls"][table]

    def test_rerun_of_finished_run_makes_no_llm_calls(self, tmp_path):
        cfg = make_run_config(tmp_path, 4)
        run_dir = tmp_path / "run"
        cli.run_batch(cfg, run_dir)
        before = read_bytes(run_dir, "answers.jsonl")
        assert cli.run_batch(cfg, run_dir) == 0
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["llm_calls"]["generator_calls"] == {}
        assert manifest["llm_calls"]["scorer_calls"] == {}
        assert read_bytes(run_dir, "answers.jsonl") == before

    def test_max_answer_tokens_reaches_the_answer_call(self, tmp_path):
        cfg = make_run_config(tmp_path, 3, max_answer_tokens=7)
        instances = load(DatasetConfig(Dataset.SYNTHETIC, cfg["dataset_path"]))
        pipe_cfg = PipelineConfig.for_dataset(
            Dataset.SYNTHETIC, Variant.MAX, max_answer_tokens=7
        )
        build_synthetic_script(instances, pipe_cfg).to_file(cfg["script_file"])
        assert cli.run_batch(cfg, tmp_path / "run") == 0

    def test_partial_script_records_failures(self, tmp_path):
        data_path = tmp_path / "synthetic.json"
        write_synthetic_dataset(data_path, 3)
        instances = load(DatasetConfig(Dataset.SYNTHETIC, str(data_path)))
        pipe_cfg = PipelineConfig.for_dataset(Dataset.SYNTHETIC, Variant.MAX)
        backend = build_synthetic_script(instances[:2], pipe_cfg)
        script_path = tmp_path / "script.json"
        backend.to_file(script_path)
        cfg = {
            "dataset": "synthetic",
            "dataset_path": str(data_path),
            "variant": "gensco-max",
            "backend": "scripted",
            "script_file": str(script_path),
        }
        run_dir = tmp_path / "run"
        assert cli.run_batch(cfg, run_dir) == 1
        failures = [
            json.loads(l)
            for l in (run_dir / "failures.jsonl").read_text().splitlines()
        ]
        assert [f["instance_id"] for f in failures] == ["syn-002"]
        assert "ScriptMiss" in failures[0]["error"]
        assert len(read_bytes(run_dir, "answers.jsonl").splitlines()) == 2


def write_rankings(path, rankings):
    Path(path).write_text(
        "".join(json.dumps({"instance_id": i, "ranking": r}) + "\n" for i, r in rankings.items())
    )


class TestBaselineRun:
    def baseline_run(self, tmp_path, n, variant, rankings=None, **extra):
        """Instances and a top_k 3 config of ``variant``, with a script
        recorded by driving the variant's loop with a plan."""
        data_path = tmp_path / "synthetic.json"
        write_synthetic_dataset(data_path, n)
        instances = load(DatasetConfig(Dataset.SYNTHETIC, str(data_path)))
        cfg = {
            "dataset": "synthetic",
            "dataset_path": str(data_path),
            "variant": variant.value,
            "top_k": 3,
            "backend": "scripted",
            "script_file": str(tmp_path / "script.json"),
            **extra,
        }
        if rankings is not None:
            cfg["rankings_file"] = str(tmp_path / "rankings.jsonl")
            write_rankings(cfg["rankings_file"], rankings)
        pipe_cfg = cli._pipeline_config(cli._check_config(cfg), Dataset.SYNTHETIC)
        backend = ScriptedBackend()
        for inst in instances:
            plan = ScriptedPlan([], [], f"baseline answer {inst.id}")
            ranking = rankings and rankings[inst.id]
            build_instance_script(
                backend, inst, pipe_cfg, plan, load_shots(Dataset.SYNTHETIC), ranking
            )
        backend.to_file(cfg["script_file"])
        return instances, cfg

    def bm25_run(self, tmp_path, n, **extra):
        return self.baseline_run(tmp_path, n, Variant.BM25, **extra)

    def test_bm25_selection_recorded(self, tmp_path):
        instances, cfg = self.bm25_run(tmp_path, 3)
        run_dir = tmp_path / "run"
        assert cli.run_batch(cfg, run_dir) == 0
        traces = [
            json.loads(l) for l in (run_dir / "traces.jsonl").read_text().splitlines()
        ]
        for inst, trace in zip(instances, traces):
            ranked = baselines.bm25_rank(inst.question, inst.passages, 1.2, 0.75)
            assert trace["selected_sequence"] == [p.index for p in ranked[:3]]
            assert trace["levels"] == []
        report = cli.evaluate_run(run_dir)
        assert report.count == 3

    def test_bm25_trace_line_is_pinned(self, tmp_path):
        _, cfg = self.bm25_run(tmp_path, 1)
        run_dir = tmp_path / "run"
        assert cli.run_batch(cfg, run_dir) == 0
        assert read_bytes(run_dir, "traces.jsonl") == (
            b'{"instance_id": "syn-000", "levels": [], "selected_sequence": [0, 1, 2], '
            b'"stop_reason": null, "variant": "bm25"}\n'
        )

    def test_bm25_shuffle_writes_a_permutation(self, tmp_path):
        _, cfg = self.bm25_run(tmp_path, 3, shuffle=True, shuffle_seed=7)
        run_dir = tmp_path / "run"
        assert cli.run_batch(cfg, run_dir) == 0
        traces = [json.loads(l) for l in read_bytes(run_dir, "traces.jsonl").splitlines()]
        answers = [json.loads(l) for l in read_bytes(run_dir, "answers.jsonl").splitlines()]
        assert len(answers) == 3
        for trace, answer in zip(traces, answers):
            assert answer["permutation"] is not None
            selected = trace["selected_sequence"]
            assert answer["context_order"] == [selected[i] for i in answer["permutation"]]

    def test_retrieval_metrics_of_a_shuffled_run_are_those_of_the_selection(self, tmp_path):
        # A shuffle permutes the answer's context_order; the report scores
        # the selection the trace records.
        _, cfg = self.bm25_run(tmp_path, 6, shuffle=True, shuffle_seed=3)
        run_dir = tmp_path / "run"
        assert cli.run_batch(cfg, run_dir) == 0
        cli.evaluate_run(run_dir)
        records = [
            [json.loads(line) for line in read_bytes(run_dir, name).splitlines()]
            for name in ("instances.jsonl", "traces.jsonl", "answers.jsonl")
        ]
        assert any(a["context_order"] != t["selected_sequence"] for _, t, a in zip(*records))
        expected = [
            vars(metrics.evaluate_instance(
                a["instance_id"],
                a["predicted_answer"],
                inst["gold_answer"],
                [inst["passages"][i]["body"] for i in a["context_order"]],
                t["selected_sequence"],
                frozenset(inst["supporting_indices"]),
            ))
            for inst, t, a in zip(*records)
        ]
        assert json.loads(read_bytes(run_dir, "report.json"))["per_instance"] == expected

    def test_precomputed_run_answers_on_the_first_top_k(self, tmp_path):
        # Entries past the first top_k are neither checked nor used.
        rankings = {"syn-000": [4, 2, 0, 1], "syn-001": [1, 3, 0, 1, 99]}
        _, cfg = self.baseline_run(tmp_path, 2, Variant.PRECOMPUTED, rankings)
        run_dir = tmp_path / "run"
        assert cli.run_batch(cfg, run_dir) == 0
        traces = [json.loads(l) for l in read_bytes(run_dir, "traces.jsonl").splitlines()]
        answers = [json.loads(l) for l in read_bytes(run_dir, "answers.jsonl").splitlines()]
        assert [t["selected_sequence"] for t in traces] == [[4, 2, 0], [1, 3, 0]]
        assert [a["predicted_answer"] for a in answers] == [
            "baseline answer syn-000",
            "baseline answer syn-001",
        ]

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda variant: variant.value)
    def test_no_request_repeats_within_a_fresh_run(self, tmp_path, variant):
        # A store that kept responses for one run only would never be read.
        if variant in (Variant.BM25, Variant.PRECOMPUTED):
            rankings = {f"syn-{i:03d}": [4, 2, 0] for i in range(4)}
            _, cfg = self.baseline_run(
                tmp_path, 4, variant, rankings if variant is Variant.PRECOMPUTED else None
            )
        else:
            cfg = make_run_config(tmp_path, 4, variant)
        cache_dir = tmp_path / "cache"
        assert cli.run_batch({**cfg, "cache_dir": str(cache_dir)}, tmp_path / "run") == 0
        calls = json.loads(read_bytes(tmp_path / "run", "manifest.json"))["llm_calls"]
        assert calls["cache_hits"] == 0
        assert calls["cache_misses"] == len(list(cache_dir.rglob("*.json"))) > 0

    def test_precomputed_requires_rankings_file(self, tmp_path):
        cfg = make_run_config(tmp_path, 2)
        cfg["variant"] = "precomputed"
        with pytest.raises(cli.ConfigError):
            cli.run_batch(cfg, tmp_path / "run")

    @pytest.mark.parametrize(
        "ranking",
        [None, [0, 9, 1], [2, 4, 2]],
        ids=["missing-instance", "absent-passage", "repeated-passage"],
    )
    def test_bad_ranking_exits_2_before_any_llm_call(self, tmp_path, ranking):
        rankings = {"syn-000": [0, 1, 2], "syn-001": [4, 3, 2]}
        _, cfg = self.baseline_run(tmp_path, 2, Variant.PRECOMPUTED, rankings)
        del rankings["syn-001"]
        if ranking is not None:
            rankings["syn-001"] = ranking
        write_rankings(cfg["rankings_file"], rankings)
        config_path = tmp_path / "config.yaml"
        config_path.write_text(yaml.safe_dump(cfg))
        run_dir = tmp_path / "run"
        result = CliRunner().invoke(
            cli.main, ["run", "--config", str(config_path), "--run-dir", str(run_dir)]
        )
        assert result.exit_code == 2, result.output
        assert "fatal" in result.output and "'rankings_file'" in result.output
        assert cfg["rankings_file"] in result.output and "'syn-001'" in result.output
        assert not (run_dir / "answers.jsonl").exists()


class TestEvaluateRun:
    def finished_run(self, tmp_path, n=4):
        cfg = make_run_config(tmp_path, n)
        run_dir = tmp_path / "run"
        cli.run_batch(cfg, run_dir)
        return run_dir

    def test_report_files_and_counts(self, tmp_path):
        run_dir = self.finished_run(tmp_path)
        report = cli.evaluate_run(run_dir)
        assert report.count == 4
        # Even-numbered synthetic instances answer correctly.
        assert report.percents["em"] == pytest.approx(50.0)
        payload = json.loads((run_dir / "report.json").read_text())
        assert payload["count"] == 4
        assert len(payload["per_instance"]) == 4
        csv_lines = (run_dir / "report.csv").read_text().splitlines()
        assert len(csv_lines) == 5
        assert csv_lines[0].startswith("instance_id,em,f1")

    def test_csv_columns_are_the_per_instance_keys(self, tmp_path):
        run_dir = self.finished_run(tmp_path)
        cli.evaluate_run(run_dir)
        header = (run_dir / "report.csv").read_text().splitlines()[0].split(",")
        assert header == [f.name for f in fields(metrics.InstanceEval)]
        payload = json.loads((run_dir / "report.json").read_text())
        assert all(sorted(row) == sorted(header) for row in payload["per_instance"])

    def test_eval_is_deterministic(self, tmp_path):
        run_dir = self.finished_run(tmp_path)
        cli.evaluate_run(run_dir)
        first = read_bytes(run_dir, "report.json"), read_bytes(run_dir, "report.csv")
        cli.evaluate_run(run_dir)
        second = read_bytes(run_dir, "report.json"), read_bytes(run_dir, "report.csv")
        assert first == second

    def test_instances_without_an_answer_are_counted_and_exit_1(self, tmp_path):
        cfg = make_run_config(tmp_path, 3)
        instances = load(DatasetConfig(Dataset.SYNTHETIC, cfg["dataset_path"]))
        pipe_cfg = PipelineConfig.for_dataset(Dataset.SYNTHETIC, Variant.MAX)
        build_synthetic_script(instances[1:], pipe_cfg).to_file(cfg["script_file"])
        run_dir = tmp_path / "run"
        assert cli.run_batch(cfg, run_dir) == 1
        result = CliRunner().invoke(cli.main, ["eval", str(run_dir)])
        assert result.exit_code == 1, result.output
        assert "em:" in result.output and "instances_missing: 1" in result.output
        payload = json.loads(read_bytes(run_dir, "report.json"))
        assert [payload[key] for key in ("count", "instances_total", "instances_missing")] == [
            2, 3, 1
        ]
        assert len(read_bytes(run_dir, "report.csv").splitlines()) == 3

    def test_run_without_a_manifest_exits_2_naming_it(self, tmp_path):
        run_dir = self.finished_run(tmp_path)
        (run_dir / "manifest.json").unlink()
        result = CliRunner().invoke(cli.main, ["eval", str(run_dir)])
        assert result.exit_code == 2, result.output
        assert f"fatal: {run_dir / 'manifest.json'}: No such file" in result.output
        assert not (run_dir / "report.json").exists()

    def test_run_without_answers_exits_2(self, tmp_path):
        run_dir = self.finished_run(tmp_path)
        (run_dir / "answers.jsonl").write_text("")
        result = CliRunner().invoke(cli.main, ["eval", str(run_dir)])
        assert result.exit_code == 2, result.output
        assert f"fatal: {run_dir / 'answers.jsonl'}: no answer records" in result.output
        assert not (run_dir / "report.json").exists()

    @pytest.mark.parametrize(
        "total", ["3", -1, None, True], ids=["string", "negative", "null", "bool"]
    )
    def test_instances_total_that_is_not_a_count_exits_2(self, tmp_path, total):
        run_dir = self.finished_run(tmp_path)
        manifest_path = run_dir / "manifest.json"
        manifest_path.write_text(
            json.dumps({**json.loads(manifest_path.read_text()), "instances_total": total})
        )
        result = CliRunner().invoke(cli.main, ["eval", str(run_dir)])
        assert result.exit_code == 2, result.output
        assert f"'instances_total' is not a count: {total!r}" in result.output
        assert not (run_dir / "report.json").exists()

    def test_missing_files_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            cli.evaluate_run(tmp_path)

    def test_corrupt_trace_line_rejected(self, tmp_path):
        run_dir = self.finished_run(tmp_path)
        with open(run_dir / "traces.jsonl", "a", encoding="utf-8") as fh:
            fh.write("{broken\n")
        with pytest.raises(cli.CorruptTrace):
            cli.evaluate_run(run_dir)

    @pytest.mark.parametrize(
        "line",
        [
            lambda rec: {**rec, "context_order": None},
            lambda rec: list(rec),
            lambda rec: {**rec, "context_order": [99]},
            lambda rec: {**rec, "instance_id": "syn-999"},
        ],
        ids=["null-context-order", "list-line", "missing-passage", "unmatched-instance"],
    )
    def test_malformed_answer_record_exits_2(self, tmp_path, line):
        run_dir = self.finished_run(tmp_path)
        answers = run_dir / "answers.jsonl"
        first = json.loads(answers.read_text().splitlines()[0])
        with open(answers, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(line(first)) + "\n")
        with pytest.raises(cli.CorruptTrace):
            cli.evaluate_run(run_dir)
        result = CliRunner().invoke(cli.main, ["eval", str(run_dir)])
        assert result.exit_code == 2
        assert "fatal" in result.output


    @pytest.mark.parametrize(
        "name,field,value,named",
        [
            ("answers.jsonl", "predicted_answer", 5, "AnswerRecord.predicted_answer"),
            ("answers.jsonl", "context_order", ["0"], "AnswerRecord.context_order"),
            ("instances.jsonl", "gold_answer", 5, "MultiHopInstance.gold_answer"),
            ("instances.jsonl", "supporting_indices", "0236", "MultiHopInstance.supporting_indices"),
            ("instances.jsonl", "supporting_indices", [1.5], "MultiHopInstance.supporting_indices"),
            ("instances.jsonl", "gold_answer", " ", "blank gold answer"),
        ],
        ids=[
            "int-answer",
            "string-in-context-order",
            "int-gold-answer",
            "string-supports",
            "float-in-supports",
            "blank-gold-answer",
        ],
    )
    def test_field_of_the_wrong_type_exits_2(self, tmp_path, name, field, value, named):
        run_dir = self.finished_run(tmp_path)
        path = run_dir / name
        lines = path.read_text().splitlines()
        first = json.loads(lines[0])
        first[field] = value
        path.write_text("\n".join([json.dumps(first)] + lines[1:]) + "\n")
        with pytest.raises(cli.CorruptTrace):
            cli.evaluate_run(run_dir)
        result = CliRunner().invoke(cli.main, ["eval", str(run_dir)])
        assert result.exit_code == 2, result.output
        assert "fatal" in result.output and f"{path}:1" in result.output
        assert named in result.output
        assert not (run_dir / "report.json").exists()

    def test_line_that_is_not_utf8_exits_2(self, tmp_path):
        run_dir = self.finished_run(tmp_path, n=2)
        path = run_dir / "traces.jsonl"
        first, second = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(first + second.replace(b'"', b'\xff"', 1))
        result = CliRunner().invoke(cli.main, ["eval", str(run_dir)])
        assert result.exit_code == 2, result.output
        assert "fatal" in result.output and f"{path}:2" in result.output
        assert "UnicodeDecodeError" in result.output

    @pytest.mark.parametrize("name", ["instances.jsonl", "traces.jsonl", "answers.jsonl"])
    def test_run_file_that_is_a_directory_exits_2(self, tmp_path, name):
        run_dir = self.finished_run(tmp_path, n=2)
        path = run_dir / name
        path.unlink()
        path.mkdir()
        with pytest.raises(IsADirectoryError, match="Is a directory"):
            cli.evaluate_run(run_dir)
        result = CliRunner().invoke(cli.main, ["eval", str(run_dir)])
        assert result.exit_code == 2, result.output
        assert f"fatal: {path}: Is a directory" in result.output
        assert not (run_dir / "report.json").exists()

# Values where a writer other than json.dumps tends to differ: orjson
# writes 1e-05 as 0.00001 and 1e+16 as 1e16, and has no ensure_ascii.
REPORT_FLOATS = st.floats() | st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), 1e-05, 1e+16, -0.0, 0.1 + 0.2]
)
# Non-ASCII, astral, lone surrogates, DEL and the characters JSON escapes.
INSTANCE_IDS = st.text(st.characters(blacklist_categories=()), max_size=8) | st.sampled_from(
    ["bench-5-00000", "é", "\U0001f600", "\ud800", "\x7f", '"\\/\n\x00', "\u2028"]
)


@st.composite
def report_payloads(draw):
    """A report.json payload as evaluate_run builds it."""
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        labelled = draw(st.booleans())
        retrieval = REPORT_FLOATS if labelled else st.none()
        counts = st.integers(-3, 12) if labelled else st.none()
        rows.append(vars(metrics.InstanceEval(
            draw(INSTANCE_IDS), draw(st.integers(0, 1)), *(draw(REPORT_FLOATS) for _ in range(4)),
            draw(retrieval), draw(retrieval), draw(retrieval), draw(counts), draw(counts),
        )))
    means = draw(st.dictionaries(st.sampled_from(metrics.MEAN_FIELDS), REPORT_FLOATS))
    hist = draw(st.dictionaries(
        st.integers(0, 12).map(str),
        st.dictionaries(st.integers(-3, 12).map(str), st.integers(1, 500), min_size=1),
    ))
    return {
        "count": len(rows),
        "means": means,
        "percents": {k: v * 100.0 for k, v in means.items()},
        "delta_hops_hist": hist,
        "per_instance": rows,
    }


class TestReportJson:
    @settings(max_examples=400, deadline=None)
    @given(report_payloads())
    def test_bytes_are_those_of_json_dumps_with_indent(self, payload):
        expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert cli._report_json(payload) == expected


class TestPipelineConfig:
    @pytest.mark.parametrize("dataset", list(Dataset))
    @pytest.mark.parametrize("variant", list(Variant))
    def test_no_optional_keys_gives_the_dataset_defaults(self, dataset, variant):
        cfg = {"dataset": dataset.value, "dataset_path": "unused", "variant": variant.value}
        assert cli._pipeline_config(cfg, dataset) == PipelineConfig.for_dataset(
            dataset, variant
        )

    def test_integer_for_a_float_key_becomes_a_float(self):
        # An int temperature would change the generator requests' fingerprints.
        cfg = {
            "dataset": "synthetic",
            "dataset_path": "unused",
            "variant": "gensco-max",
            "backend": "scripted",
            "script_file": "unused",
        }
        checked = cli._check_config({**cfg, "temperature": 0})
        assert checked["temperature"] == 0.0 and isinstance(checked["temperature"], float)

    def test_integer_for_a_bm25_float_key_becomes_a_float(self):
        cfg = {
            "dataset": "synthetic",
            "dataset_path": "unused",
            "variant": "bm25",
            "backend": "scripted",
            "script_file": "unused",
        }
        checked = cli._check_config({**cfg, "bm25_k1": 1})
        assert checked["bm25_k1"] == 1.0 and isinstance(checked["bm25_k1"], float)


class TestPlotData:
    def test_tables(self, tmp_path):
        cfg = make_run_config(tmp_path, 6)
        run_a = tmp_path / "run-a"
        run_b = tmp_path / "run-b"
        cli.run_batch(cfg, run_a)
        cli.run_batch(cfg, run_b)
        report = cli.evaluate_run(run_a)
        cli.evaluate_run(run_b)
        out_dir = tmp_path / "plots"
        cli.emit_plotdata([run_a, run_b], out_dir, subset_sizes=(2, 4), seed=1)

        scatter = (out_dir / "scatter.csv").read_text().splitlines()
        assert len(scatter) == 1 + 2 * 6
        payload = json.loads((run_a / "report.json").read_text())
        kp = [r["k_precision"] for r in payload["per_instance"]]
        f1 = [r["f1"] for r in payload["per_instance"]]
        try:
            expected_r = f"{metrics.pearson(kp, f1)}"
        except metrics.DegenerateVariance:
            expected_r = ""
        first_row = scatter[1].split(",")
        assert first_row[0] == "run-a"
        assert first_row[4] == expected_r

        hist = (out_dir / "delta_hops.csv").read_text().splitlines()
        assert hist[0] == "run_id,supporting_count,delta_hops,count"
        counts = sum(int(row.split(",")[3]) for row in hist[1:])
        assert counts == 2 * report.count

        subsets = (out_dir / "subsets.csv").read_text().splitlines()
        assert len(subsets) == 1 + 2 * 2

    def test_unevaluated_run_plots_like_an_evaluated_one(self, tmp_path):
        cfg = make_run_config(tmp_path, 4)
        run_dir = tmp_path / "run"
        cli.run_batch(cfg, run_dir)
        cli.emit_plotdata([run_dir], tmp_path / "before", subset_sizes=(2,), seed=1)
        assert not (run_dir / "report.json").exists()
        cli.evaluate_run(run_dir)
        cli.emit_plotdata([run_dir], tmp_path / "after", subset_sizes=(2,), seed=1)
        for name in ("scatter.csv", "delta_hops.csv", "subsets.csv"):
            assert read_bytes(tmp_path / "before", name) == read_bytes(tmp_path / "after", name)

    def test_corrupt_answer_line_exits_2(self, tmp_path):
        cfg = make_run_config(tmp_path, 2)
        run_dir = tmp_path / "run"
        cli.run_batch(cfg, run_dir)
        path = run_dir / "answers.jsonl"
        path.write_text("{broken\n" + path.read_text().split("\n", 1)[1])
        out_dir = tmp_path / "plots"
        result = CliRunner().invoke(
            cli.main, ["plotdata", str(run_dir), "--out-dir", str(out_dir)]
        )
        assert result.exit_code == 2, result.output
        assert "fatal" in result.output and f"{path}:1" in result.output
        assert not out_dir.exists()

    def test_run_dir_given_as_dot_or_a_link_keeps_its_name(self, tmp_path, monkeypatch):
        cfg = make_run_config(tmp_path, 3)
        run_dir = tmp_path / "exp1"
        cli.run_batch(cfg, run_dir)
        (tmp_path / "latest").symlink_to(run_dir)
        monkeypatch.chdir(run_dir)
        for given, run_id in ((".", "exp1"), (tmp_path / "latest", "latest")):
            out_dir = tmp_path / f"plots-{run_id}"
            cli.emit_plotdata([given], out_dir, subset_sizes=(2,), seed=1)
            for name in ("scatter.csv", "delta_hops.csv", "subsets.csv"):
                rows = (out_dir / name).read_text().splitlines()[1:]
                assert rows and {row.split(",")[0] for row in rows} == {run_id}

    def test_two_runs_with_one_name_exit_2(self, tmp_path):
        cfg = make_run_config(tmp_path, 2)
        run_a = tmp_path / "exp1" / "gensco-stop"
        run_b = tmp_path / "exp2" / "gensco-stop"
        cli.run_batch(cfg, run_a)
        cli.run_batch(cfg, run_b)
        out_dir = tmp_path / "plots"
        result = CliRunner().invoke(
            cli.main, ["plotdata", str(run_a), str(run_b), "--out-dir", str(out_dir)]
        )
        assert result.exit_code == 2, result.output
        assert "fatal" in result.output
        assert str(run_a) in result.output and str(run_b) in result.output
        assert not out_dir.exists()


class TestCommandLine:
    def invoke(self, *args):
        return CliRunner().invoke(cli.main, list(args))

    def write_config(self, tmp_path, cfg):
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(cfg))
        return str(path)

    def test_run_and_eval_commands(self, tmp_path):
        cfg = make_run_config(tmp_path, 3)
        config_path = self.write_config(tmp_path, cfg)
        run_dir = tmp_path / "run"
        result = self.invoke("run", "--config", config_path, "--run-dir", str(run_dir))
        assert result.exit_code == 0, result.output
        result = self.invoke("eval", str(run_dir))
        assert result.exit_code == 0, result.output
        assert "em:" in result.output

    def test_limit_override(self, tmp_path):
        cfg = make_run_config(tmp_path, 5)
        config_path = self.write_config(tmp_path, cfg)
        run_dir = tmp_path / "run"
        result = self.invoke(
            "run", "--config", config_path, "--run-dir", str(run_dir), "--limit", "2"
        )
        assert result.exit_code == 0, result.output
        assert len(read_bytes(run_dir, "traces.jsonl").splitlines()) == 2

    @pytest.mark.parametrize(
        "option",
        [
            ("--seed", "3"),
            ("--dataset", "synthetic"),
            ("--variant", "gensco-max"),
            ("--concurrency", "2"),
            ("--cache-dir", "cache"),
            ("--backend-generator-url", "http://localhost:8000"),
            ("--backend-scorer-url", "http://localhost:8001"),
        ],
        ids=lambda option: option[0],
    )
    def test_run_option_that_is_not_offered_is_a_usage_error(self, tmp_path, monkeypatch, option):
        # The config file sets each of these keys; only --limit overrides one.
        monkeypatch.chdir(tmp_path)  # where a relative --cache-dir would land
        config_path = self.write_config(tmp_path, make_run_config(tmp_path, 2))
        run_dir = tmp_path / "r"
        result = self.invoke("run", "--config", config_path, "--run-dir", str(run_dir), *option)
        assert result.exit_code == 2
        assert "No such option" in result.output and option[0] in result.output
        assert not run_dir.exists()

    @pytest.mark.parametrize(
        "name", ["instances.jsonl", "traces.jsonl", "answers.jsonl", "manifest.json", "config.yaml"]
    )
    def test_run_file_or_config_that_is_a_directory_exits_2_before_any_llm_call(
        self, tmp_path, monkeypatch, name
    ):
        config_path = self.write_config(tmp_path, make_run_config(tmp_path, 3))
        run_dir = tmp_path / "r"
        run = ("run", "--config", config_path, "--run-dir", str(run_dir))
        assert self.invoke(*run, "--limit", "2").exit_code == 0
        path = (tmp_path if name == "config.yaml" else run_dir) / name
        path.unlink()
        path.mkdir()
        calls = []
        for method in ("complete", "token_logprobs"):
            monkeypatch.setattr(ScriptedBackend, method, lambda backend, req: calls.append(req))
        result = self.invoke(*run)
        assert result.exit_code == 2, result.output
        if name == "config.yaml":  # a usage error
            assert f"'{path}' is a directory" in result.output
        else:
            assert f"fatal: {path}: Is a directory" in result.output
        assert not calls

    @pytest.mark.parametrize(
        "command,name,key,make,reason",
        [
            ("run", "r", None, "file", "File exists"),
            ("run", "cache", "cache_dir", "file", "File exists"),
            ("run", "r/failures.jsonl", None, "dir", "Is a directory"),
            ("eval", "r/report.json", None, "dir", "Is a directory"),
            ("eval", "r/report.csv", None, "dir", "Is a directory"),
            ("plotdata", "plots", None, "file", "File exists"),
            ("plotdata", "plots/scatter.csv", None, "dir", "Is a directory"),
            ("run", "dangling.json", "dataset_path", "link", "No such file or directory"),
            ("run", "dangling.json", "script_file", "link", "No such file or directory"),
        ],
        ids=["run-dir-is-a-file", "cache-dir-is-a-file", "failures-is-a-directory",
             "report-json-is-a-directory", "report-csv-is-a-directory", "out-dir-is-a-file",
             "scatter-is-a-directory", "dangling-dataset-path", "dangling-script-file"],
    )
    def test_path_the_system_refuses_exits_2_before_any_llm_call(
        self, tmp_path, monkeypatch, command, name, key, make, reason
    ):
        cfg = make_run_config(tmp_path, 3)
        run_dir = tmp_path / "r"
        run_files = ("manifest.json", "instances.jsonl", "traces.jsonl", "answers.jsonl")
        before = {}
        if command != "run" or name.startswith("r/"):  # 2 of 3 instances: one left to resume
            assert cli.run_batch({**cfg, "limit": 2}, run_dir) == 0
            before = {run_file: read_bytes(run_dir, run_file) for run_file in run_files}
        path = tmp_path / name
        path.parent.mkdir(exist_ok=True)
        if make == "file":
            path.write_text("")
        elif make == "dir":
            path.mkdir()
        else:
            path.symlink_to(tmp_path / "absent.json")
        if key is not None:
            cfg[key] = str(path)
        calls = []
        for method in ("complete", "token_logprobs"):
            monkeypatch.setattr(ScriptedBackend, method, lambda backend, req: calls.append(req))
        result = self.invoke(*{
            "run": ("run", "--config", self.write_config(tmp_path, cfg), "--run-dir", str(run_dir)),
            "eval": ("eval", str(run_dir)),
            "plotdata": ("plotdata", str(run_dir), "--out-dir", str(tmp_path / "plots")),
        }[command])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)  # no traceback
        [fatal] = [line for line in result.output.splitlines() if line.startswith("fatal:")]
        assert str(path) in fatal and reason in fatal
        assert not calls
        assert {run_file: read_bytes(run_dir, run_file) for run_file in before} == before

    @pytest.mark.parametrize("command", ["run", "eval", "plotdata"])
    def test_os_error_on_no_path_is_not_reported_as_bad_input(
        self, tmp_path, monkeypatch, command
    ):
        def fail(*args):
            raise OSError(errno.EIO, "boom")

        for name in ("run_batch", "evaluate_run", "emit_plotdata"):
            monkeypatch.setattr(cli, name, fail)
        result = self.invoke(*{
            "run": ("run", "--config", self.write_config(tmp_path, {}), "--run-dir",
                    str(tmp_path / "r")),
            "eval": ("eval", str(tmp_path)),
            "plotdata": ("plotdata", str(tmp_path), "--out-dir", str(tmp_path / "plots")),
        }[command])
        assert result.exit_code != 2
        assert isinstance(result.exception, OSError) and result.exception.errno == errno.EIO

    def test_resume_with_other_config_values_exits_2_before_any_llm_call(
        self, tmp_path, monkeypatch
    ):
        cfg = make_run_config(tmp_path, 4, Variant.STOP)
        run_dir = tmp_path / "r"
        run = ("run", "--config", self.write_config(tmp_path, cfg), "--run-dir", str(run_dir))
        assert self.invoke(*run, "--limit", "2").exit_code == 0
        before = {name: read_bytes(run_dir, name) for name in ("traces.jsonl", "manifest.json")}
        changed = {**cfg, "dedupe_pool": True, "max_levels": 2}
        run = ("run", "--config", self.write_config(tmp_path, changed), "--run-dir", str(run_dir))
        calls = []
        for name in ("complete", "token_logprobs"):
            monkeypatch.setattr(ScriptedBackend, name, lambda backend, req: calls.append(req))
        result = self.invoke(*run)
        assert result.exit_code == 2, result.output
        assert "fatal" in result.output and "['dedupe_pool', 'max_levels']" in result.output
        assert not calls
        assert {name: read_bytes(run_dir, name) for name in before} == before

    def test_resume_of_an_interrupted_first_invocation_checks_its_config(
        self, tmp_path, monkeypatch
    ):
        names = ("instances.jsonl", "traces.jsonl", "answers.jsonl")
        cfg = make_run_config(tmp_path, 4, Variant.STOP)
        fresh = tmp_path / "fresh"
        assert cli.run_batch(cfg, fresh) == 0
        run_instance, started = cli.run_instance, []

        def interrupted_on_the_third(inst, *args):
            started.append(inst.id)
            if len(started) == 3:
                raise KeyboardInterrupt
            return run_instance(inst, *args)

        monkeypatch.setattr(cli, "run_instance", interrupted_on_the_third)
        run_dir = tmp_path / "r"
        with pytest.raises(KeyboardInterrupt):
            cli.run_batch(cfg, run_dir)
        monkeypatch.undo()
        assert len(read_bytes(run_dir, "traces.jsonl").splitlines()) == 2
        changed = {**cfg, "dedupe_pool": True}
        calls = []
        with monkeypatch.context() as patched:
            for name in ("complete", "token_logprobs"):
                patched.setattr(ScriptedBackend, name, lambda backend, req: calls.append(req))
            result = self.invoke(
                "run", "--config", self.write_config(tmp_path, changed), "--run-dir", str(run_dir)
            )
        assert result.exit_code == 2, result.output
        assert "fatal" in result.output and "['dedupe_pool']" in result.output
        assert not calls
        assert cli.run_batch(cfg, run_dir) == 0
        for name in names:
            assert read_bytes(run_dir, name) == read_bytes(fresh, name), name

    def test_resume_on_an_edited_dataset_exits_2_before_any_llm_call(
        self, tmp_path, monkeypatch
    ):
        cfg = make_run_config(tmp_path, 4)
        run_dir = tmp_path / "r"
        run = ("run", "--config", self.write_config(tmp_path, cfg), "--run-dir", str(run_dir))
        assert self.invoke(*run, "--limit", "2").exit_code == 0
        before = {name: read_bytes(run_dir, name) for name in ("traces.jsonl", "manifest.json")}
        write_synthetic_dataset(cfg["dataset_path"], 5)
        calls = []
        for name in ("complete", "token_logprobs"):
            monkeypatch.setattr(ScriptedBackend, name, lambda backend, req: calls.append(req))
        result = self.invoke(*run)
        assert result.exit_code == 2, result.output
        assert "fatal" in result.output and cfg["dataset_path"] in result.output
        assert not calls
        assert {name: read_bytes(run_dir, name) for name in before} == before

    def test_resume_may_raise_limit_and_change_keys_no_record_reads(self, tmp_path):
        cfg = make_run_config(tmp_path, 4, Variant.STOP)
        fresh = tmp_path / "fresh"
        assert cli.run_batch(cfg, fresh) == 0
        run_dir = tmp_path / "r"
        assert cli.run_batch({**cfg, "limit": 2}, run_dir) == 0
        resumed = {
            **cfg, "limit": 3, "concurrency": 2, "scorer_concurrency": 2,
            "cache_dir": str(tmp_path / "cache"),
        }
        assert cli.run_batch(resumed, run_dir) == 0
        assert len(read_bytes(run_dir, "traces.jsonl").splitlines()) == 3
        assert cli.run_batch(cfg, run_dir) == 0
        for name in ("instances.jsonl", "traces.jsonl", "answers.jsonl"):
            assert read_bytes(run_dir, name) == read_bytes(fresh, name)
        manifest = json.loads(read_bytes(run_dir, "manifest.json"))
        assert manifest["config"] == cfg
        assert [i["instances_skipped"] for i in manifest["invocations"]] == [0, 2, 3]

    @pytest.mark.parametrize(
        "text,message",
        [("dataset: [unclosed\n", "not valid YAML"),
         ("- dataset: synthetic\n", "config must be a mapping")],
        ids=["unclosed-list", "a-list"],
    )
    def test_config_that_is_not_yaml_exits_2(self, tmp_path, text, message):
        path = tmp_path / "config.yaml"
        path.write_text(text)
        run_dir = tmp_path / "r"
        result = self.invoke("run", "--config", str(path), "--run-dir", str(run_dir))
        assert result.exit_code == 2, result.output
        assert f"fatal: {path}: {message}" in result.output
        assert not run_dir.exists()

    def test_config_that_is_not_utf8_exits_2(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_bytes(b'dataset: synthetic\nvariant: "\xff"\n')
        run_dir = tmp_path / "r"
        result = self.invoke("run", "--config", str(path), "--run-dir", str(run_dir))
        assert result.exit_code == 2, result.output
        assert f"fatal: {path}: not valid YAML" in result.output
        assert "can't decode byte 0xff" in result.output
        assert not run_dir.exists()

    @pytest.mark.parametrize("dataset", [Dataset.SYNTHETIC, Dataset.MUSIQUE])
    def test_dataset_that_is_not_utf8_exits_2(self, tmp_path, dataset):
        cfg = make_run_config(tmp_path, 2)
        path = Path(cfg["dataset_path"])
        if dataset is Dataset.MUSIQUE:
            record = {"id": "2hop__1", "question": "Q?", "answer": "A",
                      "paragraphs": [{"title": "T", "paragraph_text": "Text."}]}
            path.write_text(json.dumps(record) + "\n" + json.dumps(record) + "\n")
            cfg["dataset"] = "musique"
        path.write_bytes(path.read_bytes().replace(b"?", b"\xff", 1))
        config_path = self.write_config(tmp_path, cfg)
        result = self.invoke("run", "--config", config_path, "--run-dir", str(tmp_path / "r"))
        assert result.exit_code == 2, result.output
        assert f"fatal: {path}" in result.output and "can't decode byte 0xff" in result.output

    def test_missing_required_field_exits_2(self, tmp_path):
        config_path = self.write_config(tmp_path, {"dataset": "synthetic"})
        result = self.invoke("run", "--config", config_path, "--run-dir", str(tmp_path / "r"))
        assert result.exit_code == 2
        assert "fatal" in result.output

    @pytest.mark.parametrize(
        "key,value,extra",
        [
            ("scorer_concurency", 2, {}),
            ("max_in_flight", 4, {}),
            ("shots", "two", {}),
            ("shots", 2.5, {}),
            ("dedupe_pool", "no", {}),
            ("limit", -1, {}),
            ("limit", 0, {}),
            ("concurrency", 0, {}),
            ("top_k", 0, {"variant": Variant.BM25}),
            ("shuffle_seed", 3, {}),
            ("shuffle_seed", 3, {"shuffle": False}),
            ("temperature", float("nan"), {}),
            ("temperature", float("inf"), {}),
            ("temperature", 10**400, {}),
            ("bm25_k1", float("nan"), {"variant": Variant.BM25}),
            ("bm25_b", float("-inf"), {"variant": Variant.BM25}),
        ],
        ids=[
            "scorer_concurency-2",
            "max_in_flight-4",
            "shots-two",
            "shots-2.5",
            "dedupe_pool-no",
            "limit--1",
            "limit-0",
            "concurrency-0",
            "top_k-0-on-bm25",
            "shuffle_seed-without-shuffle",
            "shuffle_seed-with-shuffle-false",
            "temperature-nan",
            "temperature-inf",
            "temperature-too-large-for-a-float",
            "bm25_k1-nan",
            "bm25_b--inf",
        ],
    )
    def test_invalid_config_value_exits_2_before_the_run(self, tmp_path, key, value, extra):
        cfg = make_run_config(tmp_path, 3, **{key: value}, **extra)
        config_path = self.write_config(tmp_path, cfg)
        run_dir = tmp_path / "r"
        result = self.invoke("run", "--config", config_path, "--run-dir", str(run_dir))
        assert result.exit_code == 2, result.output
        assert "fatal" in result.output and repr(key) in result.output
        assert not run_dir.exists()

    @pytest.mark.parametrize(
        "extra,key",
        [
            ({"top_k": 3}, "top_k"),
            ({"variant": "bm25", "dedupe_pool": True}, "dedupe_pool"),
            ({"variant": "bm25", "scorer_concurrency": 2}, "scorer_concurrency"),
            ({"variant": "bm25", "rankings_file": "ranks.jsonl"}, "rankings_file"),
            (
                {"variant": "precomputed", "rankings_file": "ranks.jsonl", "bm25_k1": 1.5},
                "bm25_k1",
            ),
            ({"generator_url": "http://localhost:8000/v1"}, "generator_url"),
            (
                {
                    "backend": "http",
                    "generator_url": "http://localhost:8000/v1",
                    "generator_model": "g",
                    "scorer_url": "http://localhost:8001/v1",
                    "scorer_model": "s",
                },
                "script_file",
            ),
        ],
        ids=[
            "top_k-on-gensco-max",
            "dedupe_pool-on-bm25",
            "scorer_concurrency-on-bm25",
            "rankings_file-on-bm25",
            "bm25_k1-on-precomputed",
            "generator_url-on-scripted",
            "script_file-on-http",
        ],
    )
    def test_key_the_variant_or_backend_does_not_read_exits_2(self, tmp_path, extra, key):
        cfg = {**make_run_config(tmp_path, 2), **extra}
        config_path = self.write_config(tmp_path, cfg)
        run_dir = tmp_path / "r"
        result = self.invoke("run", "--config", config_path, "--run-dir", str(run_dir))
        assert result.exit_code == 2, result.output
        assert "fatal" in result.output and repr(key) in result.output
        assert not run_dir.exists()

    @pytest.mark.parametrize(
        "extra,key",
        [
            ({"variant": "precomputed"}, "rankings_file"),
            ({"script_file": None}, "script_file"),
            (
                {
                    "backend": "http",
                    "script_file": None,
                    "generator_url": "http://localhost:8000/v1",
                    "generator_model": "g",
                    "scorer_url": "http://localhost:8001/v1",
                },
                "scorer_model",
            ),
        ],
        ids=["precomputed-without-rankings_file", "scripted-without-script_file",
             "http-without-scorer_model"],
    )
    def test_missing_key_the_variant_or_backend_needs_exits_2(self, tmp_path, extra, key):
        cfg = {**make_run_config(tmp_path, 2), **extra}
        cfg = {k: v for k, v in cfg.items() if v is not None}
        config_path = self.write_config(tmp_path, cfg)
        run_dir = tmp_path / "r"
        result = self.invoke("run", "--config", config_path, "--run-dir", str(run_dir))
        assert result.exit_code == 2, result.output
        assert "fatal" in result.output and repr(key) in result.output
        assert not run_dir.exists()

    @pytest.mark.parametrize(
        "key,content",
        [
            ("script_file", None),
            ("script_file", "[]"),
            ("shot_bank", None),
            ("shot_bank", '[{"q": "Who?", "a": "Me"}]'),
            ("shot_bank", '[{"question": 5, "context": ["c"], "answer": null}]'),
            ("rankings_file", None),
            (
                "rankings_file",
                '{"instance_id": "syn-000", "ranking": [2.9, "1", false]}\n'
                '{"instance_id": "syn-001", "ranking": [0, 1, 2]}\n',
            ),
        ],
        ids=["missing-script", "list-script", "missing-shots", "misshapen-shots",
             "mistyped-shots",
             "missing-rankings", "mistyped-rankings"],
    )
    def test_unloadable_named_file_exits_2_before_any_llm_call(self, tmp_path, key, content):
        cfg = make_run_config(tmp_path, 2)
        if key == "rankings_file":
            cfg["variant"] = "precomputed"
        path = tmp_path / "named.json"
        if content is not None:
            path.write_text(content, encoding="utf-8")
        cfg[key] = str(path)
        config_path = self.write_config(tmp_path, cfg)
        run_dir = tmp_path / "r"
        result = self.invoke("run", "--config", config_path, "--run-dir", str(run_dir))
        assert result.exit_code == 2, result.output
        assert "fatal" in result.output and repr(key) in result.output
        assert str(path) in result.output
        assert not (run_dir / "traces.jsonl").exists()
        assert not run_dir.exists()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("backend_id", 5),
            ("completions", 5),
            ("logprobs", "ab"),
            ("logprobs", {"k": 1}),
            ("logprobs", [True, True]),
            ("logprobs", [-0.5, None]),
            ("logprobs", []),
            ("logprobs", [-0.5, float("nan")]),
        ],
        ids=["numeric-backend-id", "numeric-completion", "string-logprobs",
             "object-logprobs", "boolean-logprobs", "null-logprob", "empty-logprobs",
             "nan-logprob"],
    )
    def test_misshapen_script_exits_2_before_any_llm_call(
        self, tmp_path, monkeypatch, field, value
    ):
        cfg = make_run_config(tmp_path, 2)
        path = Path(cfg["script_file"])
        script = json.loads(path.read_text(encoding="utf-8"))
        if field == "backend_id":
            script[field] = value
        else:
            first = sorted(script[field])[0]
            script[field][first] = value
        path.write_text(json.dumps(script), encoding="utf-8")
        calls = []
        for method in ("complete", "token_logprobs"):
            monkeypatch.setattr(ScriptedBackend, method, lambda self, req: calls.append(req))
        config_path = self.write_config(tmp_path, cfg)
        run_dir = tmp_path / "r"
        result = self.invoke("run", "--config", config_path, "--run-dir", str(run_dir))
        assert result.exit_code == 2, result.output
        assert "fatal" in result.output and "'script_file'" in result.output
        assert str(path) in result.output
        assert calls == []
        assert not (run_dir / "traces.jsonl").exists()

    @pytest.mark.parametrize("variant", [Variant.STOP, Variant.BM25])
    @pytest.mark.parametrize(
        "bank_size, shots",
        [(None, 3), (1, 2), (1, None)],
        ids=["packaged-bank", "shot_bank-file", "shot_bank-file-default-shots"],
    )
    def test_shots_beyond_the_shot_bank_exit_2_before_any_llm_call(
        self, tmp_path, monkeypatch, variant, bank_size, shots
    ):
        cfg = make_run_config(tmp_path, 2, variant=variant)
        if shots is not None:
            cfg["shots"] = shots
        if bank_size is not None:
            bank = [vars(shot) for shot in load_shots(Dataset.SYNTHETIC)[:bank_size]]
            cfg["shot_bank"] = str(tmp_path / "shots.json")
            Path(cfg["shot_bank"]).write_text(json.dumps(bank), encoding="utf-8")
        calls = []
        for method in ("complete", "token_logprobs"):
            monkeypatch.setattr(ScriptedBackend, method, lambda self, req: calls.append(req))
        config_path = self.write_config(tmp_path, cfg)
        run_dir = tmp_path / "r"
        result = self.invoke("run", "--config", config_path, "--run-dir", str(run_dir))
        assert result.exit_code == 2, result.output
        assert "fatal" in result.output and "'shots'" in result.output
        asked, held = shots or 2, bank_size or 2
        assert f"{asked} shots" in result.output and f"holds {held}" in result.output
        assert calls == []
        assert not (run_dir / "traces.jsonl").exists()

    @pytest.mark.parametrize(
        "text,named",
        [("{broken", "unreadable"), ("[]", "a JSON list, not an object"),
         ('{"config": ["dataset"]}', "'config' is not a mapping")],
        ids=["broken-json", "a-list", "config-a-list"],
    )
    def test_unreadable_manifest_exits_2_before_any_llm_call(self, tmp_path, text, named):
        config_path = self.write_config(tmp_path, make_run_config(tmp_path, 2))
        run_dir = tmp_path / "r"
        run_dir.mkdir()
        (run_dir / "manifest.json").write_text(text)
        result = self.invoke("run", "--config", config_path, "--run-dir", str(run_dir))
        assert result.exit_code == 2
        assert f"fatal: {run_dir / 'manifest.json'}: " in result.output
        assert named in result.output
        assert not (run_dir / "traces.jsonl").exists()

    def test_manifest_whose_invocations_are_not_a_list_exits_2_before_any_llm_call(
        self, tmp_path, monkeypatch
    ):
        config_path = self.write_config(tmp_path, make_run_config(tmp_path, 4))
        run_dir = tmp_path / "r"
        run = ("run", "--config", config_path, "--run-dir", str(run_dir))
        assert self.invoke(*run, "--limit", "3").exit_code == 0
        manifest_path = run_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["invocations"] = {"a": 1}
        manifest_path.write_text(json.dumps(manifest))
        before = {name: read_bytes(run_dir, name) for name in ("traces.jsonl", "answers.jsonl")}
        calls = []
        for name in ("complete", "token_logprobs"):
            monkeypatch.setattr(ScriptedBackend, name, lambda backend, req: calls.append(req))
        result = self.invoke(*run, "--limit", "4")
        assert result.exit_code == 2, result.output
        assert "fatal" in result.output and "'invocations'" in result.output
        assert not calls
        assert {name: read_bytes(run_dir, name) for name in before} == before

    def test_blank_trace_line_on_resume_exits_2(self, tmp_path):
        config_path = self.write_config(tmp_path, make_run_config(tmp_path, 4))
        run_dir = tmp_path / "r"
        run = ("run", "--config", config_path, "--run-dir", str(run_dir))
        assert self.invoke(*run, "--limit", "3").exit_code == 0
        traces = run_dir / "traces.jsonl"
        lines = traces.read_text().splitlines()
        lines[1] = ""
        traces.write_text("\n".join(lines) + "\n")
        result = self.invoke(*run)
        assert result.exit_code == 2, result.output
        assert "fatal" in result.output and str(traces) in result.output
        assert traces.read_text().splitlines() == lines

    @pytest.mark.parametrize(
        "line",
        ["{broken", "{}", '{"instance_id": []}'],
        ids=["broken-json", "no-instance-id", "list-instance-id"],
    )
    def test_corrupt_trace_line_on_resume_exits_2_before_any_llm_call(
        self, tmp_path, monkeypatch, line
    ):
        config_path = self.write_config(tmp_path, make_run_config(tmp_path, 4))
        run_dir = tmp_path / "r"
        run = ("run", "--config", config_path, "--run-dir", str(run_dir))
        assert self.invoke(*run, "--limit", "3").exit_code == 0
        traces = run_dir / "traces.jsonl"
        lines = traces.read_text().splitlines()
        lines[1] = line
        traces.write_text("\n".join(lines) + "\n")
        calls = []
        for name in ("complete", "token_logprobs"):
            monkeypatch.setattr(ScriptedBackend, name, lambda backend, req: calls.append(req))
        result = self.invoke(*run)
        assert result.exit_code == 2, result.output
        assert "fatal" in result.output and f"{traces}:2" in result.output
        assert not calls
        assert traces.read_text().splitlines() == lines

    def test_unknown_variant_exits_2(self, tmp_path):
        cfg = make_run_config(tmp_path, 2)
        cfg["variant"] = "gensco-unknown"
        config_path = self.write_config(tmp_path, cfg)
        result = self.invoke("run", "--config", config_path, "--run-dir", str(tmp_path / "r"))
        assert result.exit_code == 2

    def test_unknown_score_sign_exits_2_before_any_llm_call(self, tmp_path):
        cfg = make_run_config(tmp_path, 2, score_sign="max")
        config_path = self.write_config(tmp_path, cfg)
        run_dir = tmp_path / "r"
        result = self.invoke("run", "--config", config_path, "--run-dir", str(run_dir))
        assert result.exit_code == 2
        assert "score_sign" in result.output
        assert not (run_dir / "traces.jsonl").exists()

    @pytest.mark.parametrize(
        "url", ["localhost:8000", "http://" + "a" * 64 + ".test:8000/v1"],
        ids=["no-scheme", "label-past-63-characters"],
    )
    def test_malformed_backend_url_exits_2(self, tmp_path, url):
        cfg = make_run_config(tmp_path, 2, backend="http", generator_model="g",
                              scorer_model="s", generator_url=url,
                              scorer_url="http://localhost:8001")
        del cfg["script_file"]
        config_path = self.write_config(tmp_path, cfg)
        run_dir = tmp_path / "r"
        result = self.invoke("run", "--config", config_path, "--run-dir", str(run_dir))
        assert result.exit_code == 2
        assert "fatal: " in result.output and repr(url) in result.output
        assert not run_dir.exists()

    def test_missing_dataset_file_exits_2(self, tmp_path):
        cfg = make_run_config(tmp_path, 2)
        cfg["dataset_path"] = str(tmp_path / "nope.json")
        config_path = self.write_config(tmp_path, cfg)
        result = self.invoke("run", "--config", config_path, "--run-dir", str(tmp_path / "r"))
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "where,reason",
        [("dataset-dir", "Is a directory"), ("synthetic.json/dataset.json", "Not a directory")],
        ids=["a-directory", "under-a-file"],
    )
    def test_dataset_path_that_cannot_be_read_exits_2(self, tmp_path, where, reason):
        cfg = make_run_config(tmp_path, 2)
        path = tmp_path / where
        if where == "dataset-dir":
            path.mkdir()
        cfg["dataset_path"] = str(path)
        config_path = self.write_config(tmp_path, cfg)
        run_dir = tmp_path / "r"
        result = self.invoke("run", "--config", config_path, "--run-dir", str(run_dir))
        assert result.exit_code == 2, result.output
        assert f"fatal: {path}: {reason}" in result.output
        assert not (run_dir / "traces.jsonl").exists()
        assert not run_dir.exists()

    def test_limit_above_dataset_size_exits_2(self, tmp_path):
        config_path = self.write_config(tmp_path, make_run_config(tmp_path, 10))
        run_dir = tmp_path / "r"
        result = self.invoke(
            "run", "--config", config_path, "--run-dir", str(run_dir), "--limit", "50"
        )
        assert result.exit_code == 2
        assert "fatal" in result.output and "limit 50" in result.output
        assert not (run_dir / "traces.jsonl").exists()

    def test_blank_question_exits_2_before_any_llm_call(self, tmp_path):
        cfg = make_run_config(tmp_path, 3)
        records = [synthetic_record(i) for i in range(3)]
        records[1]["question"] = "   "
        Path(cfg["dataset_path"]).write_text(json.dumps(records), encoding="utf-8")
        config_path = self.write_config(tmp_path, cfg)
        run_dir = tmp_path / "r"
        result = self.invoke("run", "--config", config_path, "--run-dir", str(run_dir))
        assert result.exit_code == 2
        assert "fatal" in result.output and "blank question" in result.output
        assert not (run_dir / "traces.jsonl").exists()

    def test_eval_on_empty_dir_exits_2(self, tmp_path):
        result = self.invoke("eval", str(tmp_path))
        assert result.exit_code == 2

    def test_plotdata_command(self, tmp_path):
        cfg = make_run_config(tmp_path, 3)
        run_dir = tmp_path / "run"
        cli.run_batch(cfg, run_dir)
        cli.evaluate_run(run_dir)
        out_dir = tmp_path / "plots"
        result = self.invoke(
            "plotdata", str(run_dir), "--out-dir", str(out_dir), "--subset-sizes", "2,5"
        )
        assert result.exit_code == 0, result.output
        assert (out_dir / "scatter.csv").exists()
        # A size over the run's 3 instances takes all of them.
        subsets = (out_dir / "subsets.csv").read_text().splitlines()
        assert [row.split(",")[1] for row in subsets[1:]] == ["2", "3"]

    @pytest.mark.parametrize("sizes", ["2,-1", "a"])
    def test_plotdata_subset_sizes_must_be_positive_integers(self, tmp_path, sizes):
        cfg = make_run_config(tmp_path, 3)
        run_dir = tmp_path / "run"
        cli.run_batch(cfg, run_dir)
        cli.evaluate_run(run_dir)
        out_dir = tmp_path / "plots"
        result = self.invoke(
            "plotdata", str(run_dir), "--out-dir", str(out_dir), "--subset-sizes", sizes
        )
        assert result.exit_code == 2, result.output
        assert "--subset-sizes" in result.output and "positive integers" in result.output
        assert not out_dir.exists()
