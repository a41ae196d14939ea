import json
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

from gensco import baselines, cli, metrics
from gensco.datasets import DatasetConfig, load
from gensco.llm import GeneratorRequest, ScriptedBackend
from gensco.models import Dataset, Variant
from gensco.pipeline import PipelineConfig, answer_step
from gensco.prompts import load_shots, render_answer_prompt

from helpers import (
    InFlight,
    build_synthetic_script,
    synthetic_record,
    write_synthetic_dataset,
)


def make_run_config(tmp_path, n_instances, variant=Variant.MAX, **extra):
    """Write a synthetic dataset plus a matching scripted backend to disk."""
    data_path = tmp_path / "synthetic.json"
    write_synthetic_dataset(data_path, n_instances)
    instances = load(DatasetConfig(Dataset.SYNTHETIC, str(data_path)))
    pipe_cfg = PipelineConfig.for_dataset(Dataset.SYNTHETIC, variant)
    backend = build_synthetic_script(instances, pipe_cfg)
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


def read_bytes(run_dir, name):
    return (Path(run_dir) / name).read_bytes()


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
        assert flight.peak <= 4
        # The scorer pools end with the run's worker threads.
        deadline = time.monotonic() + 5
        while threading.active_count() > threads_before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert threading.active_count() <= threads_before

    def test_shared_scorer_pool_under_stress_matches_the_serial_run(self, tmp_path):
        # 4 instance threads and 16 scorer workers on one pool, with thread
        # switches forced as often as the interpreter allows: a lost counter
        # update or a reply out of request order shows in the files or counts.
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


class TestBaselineRun:
    def build_bm25_script(self, instances, top_k=3):
        backend = ScriptedBackend()
        shots = load_shots(Dataset.SYNTHETIC)
        for inst in instances:
            ranked = baselines.bm25_rank(inst.question, inst.passages)
            chosen = [p.index for p in baselines.top_k(ranked, top_k)]
            prompt = render_answer_prompt(
                inst.question,
                [inst.passage_by_index(i) for i in chosen],
                tuple(shots)[:2],
            )
            backend.add_completion(
                GeneratorRequest(
                    prompt=prompt.text,
                    temperature=0.0,
                    max_output_tokens=64,
                    stop_sequences=("\n",),
                ),
                f"baseline answer {inst.id}",
            )
        return backend

    def test_bm25_selection_recorded(self, tmp_path):
        data_path = tmp_path / "synthetic.json"
        write_synthetic_dataset(data_path, 3)
        instances = load(DatasetConfig(Dataset.SYNTHETIC, str(data_path)))
        script_path = tmp_path / "script.json"
        self.build_bm25_script(instances).to_file(script_path)
        cfg = {
            "dataset": "synthetic",
            "dataset_path": str(data_path),
            "variant": "bm25",
            "top_k": 3,
            "backend": "scripted",
            "script_file": str(script_path),
        }
        run_dir = tmp_path / "run"
        assert cli.run_batch(cfg, run_dir) == 0
        traces = [
            json.loads(l) for l in (run_dir / "traces.jsonl").read_text().splitlines()
        ]
        for inst, trace in zip(instances, traces):
            ranked = baselines.bm25_rank(inst.question, inst.passages)
            expected = [p.index for p in baselines.top_k(ranked, 3)]
            assert trace["selected_sequence"] == expected
            assert trace["levels"] == []
        report = cli.evaluate_run(run_dir)
        assert report.count == 3

    def bm25_run(self, tmp_path, n, **extra):
        data_path = tmp_path / "synthetic.json"
        write_synthetic_dataset(data_path, n)
        instances = load(DatasetConfig(Dataset.SYNTHETIC, str(data_path)))
        script_path = tmp_path / "script.json"
        self.build_bm25_script(instances).to_file(script_path)
        cfg = {
            "dataset": "synthetic",
            "dataset_path": str(data_path),
            "variant": "bm25",
            "top_k": 3,
            "backend": "scripted",
            "script_file": str(script_path),
            **extra,
        }
        return instances, cfg

    def test_bm25_trace_line_is_pinned(self, tmp_path):
        _, cfg = self.bm25_run(tmp_path, 1)
        run_dir = tmp_path / "run"
        assert cli.run_batch(cfg, run_dir) == 0
        assert read_bytes(run_dir, "traces.jsonl") == (
            b'{"instance_id": "syn-000", "levels": [], "selected_sequence": [0, 1, 2], '
            b'"stop_reason": null, "variant": "bm25"}\n'
        )

    def test_bm25_shuffle_writes_a_permutation(self, tmp_path):
        instances, cfg = self.bm25_run(tmp_path, 3, shuffle=True, shuffle_seed=7)
        pipe_cfg = PipelineConfig.for_dataset(
            Dataset.SYNTHETIC, Variant.BM25, shuffle=True, shuffle_seed=7
        )
        backend = ScriptedBackend()
        for inst in instances:
            ranked = baselines.bm25_rank(inst.question, inst.passages)
            selected = [p.index for p in baselines.top_k(ranked, 3)]
            loop = answer_step(inst, selected, pipe_cfg, load_shots(Dataset.SYNTHETIC), "scripted")
            backend.add_completion(next(loop).request, f"shuffled answer {inst.id}")
        backend.to_file(cfg["script_file"])
        run_dir = tmp_path / "run"
        assert cli.run_batch(cfg, run_dir) == 0
        traces = [json.loads(l) for l in read_bytes(run_dir, "traces.jsonl").splitlines()]
        answers = [json.loads(l) for l in read_bytes(run_dir, "answers.jsonl").splitlines()]
        assert len(answers) == 3
        for trace, answer in zip(traces, answers):
            assert answer["permutation"] is not None
            selected = trace["selected_sequence"]
            assert answer["context_order"] == [selected[i] for i in answer["permutation"]]

    def test_precomputed_requires_rankings_file(self, tmp_path):
        cfg = make_run_config(tmp_path, 2)
        cfg["variant"] = "precomputed"
        with pytest.raises(cli.ConfigError):
            cli.run_batch(cfg, tmp_path / "run")


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

    def test_eval_is_deterministic(self, tmp_path):
        run_dir = self.finished_run(tmp_path)
        cli.evaluate_run(run_dir)
        first = read_bytes(run_dir, "report.json"), read_bytes(run_dir, "report.csv")
        cli.evaluate_run(run_dir)
        second = read_bytes(run_dir, "report.json"), read_bytes(run_dir, "report.csv")
        assert first == second

    def test_missing_files_rejected(self, tmp_path):
        with pytest.raises(cli.CorruptTrace):
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
        ],
        ids=["null-context-order", "list-line", "missing-passage"],
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


    def test_trace_without_selected_sequence_exits_2(self, tmp_path):
        run_dir = self.finished_run(tmp_path)
        traces = run_dir / "traces.jsonl"
        lines = traces.read_text().splitlines()
        first = json.loads(lines[0])
        del first["selected_sequence"]
        traces.write_text("\n".join([json.dumps(first)] + lines[1:]) + "\n")
        with pytest.raises(cli.CorruptTrace):
            cli.evaluate_run(run_dir)
        result = CliRunner().invoke(cli.main, ["eval", str(run_dir)])
        assert result.exit_code == 2
        assert "fatal" in result.output


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

    def test_unevaluated_run_rejected(self, tmp_path):
        cfg = make_run_config(tmp_path, 2)
        run_dir = tmp_path / "run"
        cli.run_batch(cfg, run_dir)
        with pytest.raises(cli.CorruptTrace):
            cli.emit_plotdata([run_dir], tmp_path / "plots")


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

    def test_run_seed_option_is_a_usage_error(self, tmp_path):
        config_path = self.write_config(tmp_path, make_run_config(tmp_path, 2))
        run_dir = tmp_path / "r"
        result = self.invoke(
            "run", "--config", config_path, "--run-dir", str(run_dir), "--seed", "3"
        )
        assert result.exit_code == 2
        assert "No such option" in result.output and "--seed" in result.output
        assert not run_dir.exists()

    def test_missing_required_field_exits_2(self, tmp_path):
        config_path = self.write_config(tmp_path, {"dataset": "synthetic"})
        result = self.invoke("run", "--config", config_path, "--run-dir", str(tmp_path / "r"))
        assert result.exit_code == 2
        assert "fatal" in result.output

    @pytest.mark.parametrize(
        "key,value",
        [
            ("scorer_concurency", 2),
            ("max_in_flight", 4),
            ("shots", "two"),
            ("shots", 2.5),
            ("dedupe_pool", "no"),
            ("limit", -1),
            ("limit", 0),
            ("concurrency", 0),
        ],
    )
    def test_invalid_config_value_exits_2_before_the_run(self, tmp_path, key, value):
        cfg = make_run_config(tmp_path, 3, **{key: value})
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
            ("rankings_file", None),
        ],
        ids=["missing-script", "list-script", "missing-shots", "misshapen-shots",
             "missing-rankings"],
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

    def test_unreadable_manifest_exits_2_before_any_llm_call(self, tmp_path):
        config_path = self.write_config(tmp_path, make_run_config(tmp_path, 2))
        run_dir = tmp_path / "r"
        run_dir.mkdir()
        (run_dir / "manifest.json").write_text("{broken")
        result = self.invoke("run", "--config", config_path, "--run-dir", str(run_dir))
        assert result.exit_code == 2
        assert "fatal" in result.output and "manifest.json" in result.output
        assert not (run_dir / "traces.jsonl").exists()

    @pytest.mark.parametrize("line", ["{broken", "{}"], ids=["broken-json", "no-instance-id"])
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

    def test_malformed_backend_url_exits_2(self, tmp_path):
        cfg = make_run_config(tmp_path, 2, backend="http", generator_model="g",
                              scorer_model="s", generator_url="localhost:8000",
                              scorer_url="http://localhost:8001")
        del cfg["script_file"]
        config_path = self.write_config(tmp_path, cfg)
        result = self.invoke("run", "--config", config_path, "--run-dir", str(tmp_path / "r"))
        assert result.exit_code == 2
        assert "localhost:8000" in result.output

    def test_missing_dataset_file_exits_2(self, tmp_path):
        cfg = make_run_config(tmp_path, 2)
        cfg["dataset_path"] = str(tmp_path / "nope.json")
        config_path = self.write_config(tmp_path, cfg)
        result = self.invoke("run", "--config", config_path, "--run-dir", str(tmp_path / "r"))
        assert result.exit_code == 2

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
