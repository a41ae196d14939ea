"""Golden bytes of what gensco stores: a scorer disk-cache file, the
report files of a fixed synthetic run and the plot tables of fixed runs.
A refactor of the records behind them must leave these bytes unchanged."""

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


def scripted_run(tmp_path, records, variant, name):
    """Run ``variant`` over ``records`` with a scripted backend; the run dir."""
    data_path = tmp_path / f"{name}.json"
    data_path.write_text(json.dumps(records), encoding="utf-8")
    instances = load(DatasetConfig(Dataset.SYNTHETIC, str(data_path)))
    pipe_cfg = PipelineConfig.for_dataset(Dataset.SYNTHETIC, variant)
    script_path = tmp_path / f"{name}-script.json"
    build_synthetic_script(instances, pipe_cfg).to_file(script_path)
    cfg = {
        "dataset": "synthetic",
        "dataset_path": str(data_path),
        "variant": variant.value,
        "backend": "scripted",
        "script_file": str(script_path),
    }
    run_dir = tmp_path / name
    assert cli.run_batch(cfg, run_dir) == 0
    return run_dir


def test_report_files_of_a_fixed_synthetic_run(tmp_path):
    # Six instances; every third has no supporting labels, so its
    # retrieval columns are empty.
    records = [synthetic_record(i) for i in range(6)]
    for record in records[2::3]:
        del record["supporting_facts"]
    run_dir = scripted_run(tmp_path, records, Variant.STOP, "run")
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


def test_plot_tables_of_fixed_runs(tmp_path):
    # (passages, supporting passages); None: no supporting labels. At
    # bm25's top 5 the supporting counts 2 and 11 and the deltas -1 and -3
    # share a run, so the histogram's string key order ("11" before "2",
    # "-1" before "-3") differs from its integer order.
    shapes = [(3, 2), (7, 4), (12, 11), (12, 2), (7, 2), (3, 3), (12, None)]
    records = []
    for i, (n_passages, n_supporting) in enumerate(shapes):
        record = synthetic_record(i, n_passages)
        if n_supporting is None:
            del record["supporting_facts"]
        else:
            record["supporting_facts"] = [
                [f"Topic {i} item {j}", 0] for j in range(n_supporting)
            ]
        records.append(record)
    run_dirs = [
        scripted_run(tmp_path, records, variant, variant.value)
        for variant in (Variant.MAX, Variant.STOP, Variant.BM25)
    ]
    for run_dir in run_dirs:
        cli.evaluate_run(run_dir)
    out_dir = tmp_path / "plots"
    cli.emit_plotdata(run_dirs, out_dir, subset_sizes=(2, 5, 20), seed=3)
    digests = {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in ("scatter.csv", "delta_hops.csv", "subsets.csv")
    }
    assert digests == {
        "scatter.csv": "1af50df7608d58db1dbfaa98568db59f9520b195dae63c814ed9380fc6fc331d",
        "delta_hops.csv": "71599e43c5f380d831ed55895a0312ec73de3b4b3712ff7539517b80b91aa4db",
        "subsets.csv": "26fd77def2ec3eebac7483a958a54cc01f08a8fdd808ab7a2501f73f955c99c9",
    }
