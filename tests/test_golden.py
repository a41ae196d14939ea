"""Golden bytes of what gensco stores: a scorer disk-cache file and the
report files of a fixed synthetic run. A refactor of the records behind
them must leave these bytes unchanged."""

import hashlib
import json

from gensco import cli
from gensco.datasets import DatasetConfig, load
from gensco.llm import LlmGateway, ScorerRequest, ScriptedBackend
from gensco.models import Dataset, Variant
from gensco.pipeline import PipelineConfig

from helpers import build_synthetic_script, synthetic_record


def test_scorer_disk_cache_file_bytes(tmp_path):
    backend = ScriptedBackend()
    req = ScorerRequest("Passage: Zürich\nQuestion:", " Thea Sharrock")
    backend.add_logprobs(req, [-0.25, -1.5, -0.125])
    gateway = LlmGateway(backend, backend, cache_dir=tmp_path)
    assert gateway.score_continuation(req, "relevance") is not None
    (path,) = tmp_path.rglob("*.json")
    assert path.relative_to(tmp_path).as_posix() == (
        "8b/8bbef1014c00e781b30796f9e54764b16378c4523f3b87756e787da3f3972bb4.json"
    )
    assert path.read_bytes() == (
        b'{"mean_nll": 0.625, "token_logprobs": [-0.25, -1.5, -0.125]}'
    )


def test_report_files_of_a_fixed_synthetic_run(tmp_path):
    # Six instances; every third has no supporting labels, so its
    # retrieval columns are empty.
    records = [synthetic_record(i) for i in range(6)]
    for record in records[2::3]:
        del record["supporting_facts"]
    data_path = tmp_path / "synthetic.json"
    data_path.write_text(json.dumps(records), encoding="utf-8")
    instances = load(DatasetConfig(Dataset.SYNTHETIC, str(data_path)))
    pipe_cfg = PipelineConfig.for_dataset(Dataset.SYNTHETIC, Variant.STOP)
    script_path = tmp_path / "script.json"
    build_synthetic_script(instances, pipe_cfg).to_file(script_path)
    cfg = {
        "dataset": "synthetic",
        "dataset_path": str(data_path),
        "variant": Variant.STOP.value,
        "backend": "scripted",
        "script_file": str(script_path),
    }
    run_dir = tmp_path / "run"
    assert cli.run_batch(cfg, run_dir) == 0
    cli.evaluate_run(run_dir)
    cli.emit_plotdata([run_dir], tmp_path / "plots", subset_sizes=(2, 5), seed=3)
    digests = {
        name: hashlib.sha256(path.read_bytes()).hexdigest()
        for name, path in (
            ("report.json", run_dir / "report.json"),
            ("report.csv", run_dir / "report.csv"),
            ("subsets.csv", tmp_path / "plots" / "subsets.csv"),
        )
    }
    assert digests == {
        "report.json": "da8060af980c92a5558f3670f2cc5bd241a381ac3a435b6b375059001005d90a",
        "report.csv": "4e77d18de4e89a3654172364c33519471cfa70026cfa9a3d8842210175ae06bb",
        "subsets.csv": "29f255da46b007e9840db995a5909ba8783803d699fbbc93babc32657b79f7eb",
    }
