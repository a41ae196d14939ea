"""Self-test of the benchmark: ``python3 -m pytest bench/test_bench.py -q``.

It checks that the loopback server and the in-process fake give the
same responses, and that a tiny run of every workload passes every gate.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import fake_llm  # noqa: E402
import run  # noqa: E402
from gensco import pipeline, prompts  # noqa: E402
from gensco.datasets import DatasetConfig, load  # noqa: E402
from gensco.llm import HttpBackend, LlmGateway  # noqa: E402
from gensco.models import Dataset, Variant  # noqa: E402


class Recorder:
    def __init__(self) -> None:
        self.completions = []
        self.logprobs = []

    def add_completion(self, req, text) -> None:
        self.completions.append((req, text))

    def add_logprobs(self, req, logprobs) -> None:
        self.logprobs.append((req, list(logprobs)))


def test_loopback_server_answers_like_the_in_process_fake(tmp_path):
    records, _ = fake_llm.make_dataset(seed=5, n=10)
    path = tmp_path / "dataset.json"
    path.write_text(json.dumps(records), encoding="utf-8")
    instances = load(DatasetConfig(dataset=Dataset.TWO_WIKI, path=str(path)))
    recorder = Recorder()
    backend = fake_llm.FakeBackend(recorder)
    cfg = pipeline.PipelineConfig.for_dataset(Dataset.TWO_WIKI, Variant.STOP)
    shots = prompts.load_shots(Dataset.TWO_WIKI)
    for inst in instances[:4]:
        pipeline.run_instance(inst, cfg, LlmGateway(backend, backend), shots)

    server = run.FakeServer(tmp_path)
    try:
        http = HttpBackend(server.base_url + "/v1", "fake")
        for req, text in recorder.completions:
            assert http.complete(req) == text
        for req, logprobs in recorder.logprobs:
            assert http.token_logprobs(req) == logprobs
    finally:
        server.stop()
    assert server.proc.returncode is not None
    assert {t for _, t in recorder.completions} >= {" " + fake_llm.FIN}


def test_tiny_run_of_every_workload_passes_every_gate(capsys):
    code = run.main(["--workload", "all", "--seed", "3", "--seconds", "0",
                     "--instances", "10"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "FAIL" not in out
    for name in run.WORKLOADS:
        assert f"== {name}:" in out


@pytest.mark.parametrize("n", [0, 15])
def test_dataset_size_must_fill_whole_plan_blocks(n):
    with pytest.raises(ValueError):
        fake_llm.make_dataset(seed=1, n=n)
