import json
import re

import pytest

from gensco.datasets import DatasetConfig, load, subsample
from gensco.models import Dataset, InputError

from helpers import write_synthetic_dataset


def wiki_record(i, n_passages=10, supports=(0, 1)):
    context = [[f"Title {i}-{j}", [f"Sentence one of {i}-{j}. ", "Sentence two."]]
               for j in range(n_passages)]
    return {
        "_id": f"wiki-{i}",
        "question": f"Question {i}?",
        "answer": f"Answer {i}",
        "context": context,
        "supporting_facts": [[f"Title {i}-{j}", 0] for j in supports],
    }


def musique_line(i, hop="2hop", n_paras=4):
    return json.dumps(
        {
            "id": f"{hop}__{i}",
            "question": f"Question {i}?",
            "answer": f"Answer {i}",
            "paragraphs": [
                {
                    "idx": j,
                    "title": f"T{j}",
                    "paragraph_text": f"Paragraph {j} text.",
                    "is_supporting": j < 2,
                }
                for j in range(n_paras)
            ],
        }
    )


class TestWikiStyleLoader:
    def test_loads_instances_with_ten_passages(self, tmp_path):
        path = tmp_path / "wiki.json"
        path.write_text(json.dumps([wiki_record(i) for i in range(6)]))
        instances = load(DatasetConfig(Dataset.TWO_WIKI, str(path)))
        assert len(instances) == 6
        assert all(len(inst.passages) == 10 for inst in instances)
        assert instances[0].supporting_indices == {0, 1}
        # Sentences are joined into one passage body.
        assert instances[0].passages[0].body == "Sentence one of 0-0. Sentence two."

    def test_adv_hotpot_shape(self, tmp_path):
        path = tmp_path / "adv.json"
        path.write_text(json.dumps([wiki_record(i, n_passages=4) for i in range(3)]))
        instances = load(DatasetConfig(Dataset.ADV_HOTPOT, str(path)))
        assert all(len(inst.passages) == 4 for inst in instances)
        assert all(len(inst.supporting_indices) == 2 for inst in instances)

    def test_empty_file_is_parse_error(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        message = rf"^{re.escape(str(path))}: line 1, column 1: Expecting value$"
        with pytest.raises(InputError, match=message):
            load(DatasetConfig(Dataset.TWO_WIKI, str(path)))

    def test_empty_array_is_parse_error(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        message = rf"^{re.escape(str(path))}: expected a non-empty JSON array of instances$"
        with pytest.raises(InputError, match=message):
            load(DatasetConfig(Dataset.TWO_WIKI, str(path)))

    def test_missing_field_names_the_field(self, tmp_path):
        record = wiki_record(0)
        del record["question"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([record]))
        message = rf"^{re.escape(str(path))}\[0\]: missing field 'question'$"
        with pytest.raises(InputError, match=message):
            load(DatasetConfig(Dataset.TWO_WIKI, str(path)))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load(DatasetConfig(Dataset.TWO_WIKI, str(tmp_path / "nope.json")))

    def test_order_stable_and_idempotent(self, tmp_path):
        path = tmp_path / "wiki.json"
        path.write_text(json.dumps([wiki_record(i) for i in range(5)]))
        cfg = DatasetConfig(Dataset.TWO_WIKI, str(path))
        assert load(cfg) == load(cfg)


    def test_numeric_id_past_64_bits_is_kept_exact(self, tmp_path):
        # orjson would read it as the float 1.2345678901234568e+29.
        path = tmp_path / "data.json"
        path.write_text(json.dumps([{**wiki_record(0), "_id": 123456789012345678901234567890}]))
        (inst,) = load(DatasetConfig(Dataset.TWO_WIKI, str(path)))
        assert inst.id == "123456789012345678901234567890"


class TestMusiqueLoader:
    def test_filters_to_two_hop(self, tmp_path):
        path = tmp_path / "musique.jsonl"
        lines = [musique_line(0), "", musique_line(1, hop="3hop"), " \t", musique_line(2)]
        path.write_text("\n".join(lines) + "\n")
        instances = load(DatasetConfig(Dataset.MUSIQUE, str(path)))
        assert [inst.id for inst in instances] == ["2hop__0", "2hop__2"]  # blank lines skipped
        assert instances[0].supporting_indices == {0, 1}

    def test_file_without_a_two_hop_record_is_a_parse_error(self, tmp_path):
        path = tmp_path / "musique.jsonl"
        path.write_text(musique_line(0, hop="3hop") + "\n\n")
        message = rf"^{re.escape(str(path))}: no 2-hop instances found$"
        with pytest.raises(InputError, match=message):
            load(DatasetConfig(Dataset.MUSIQUE, str(path)))

    def test_corrupt_line_reports_position(self, tmp_path):
        path = tmp_path / "musique.jsonl"
        path.write_text(musique_line(0) + "\n{not json\n")
        with pytest.raises(InputError, match=rf"^{re.escape(str(path))}:2: .* at column 2$"):
            load(DatasetConfig(Dataset.MUSIQUE, str(path)))


def set_field(name, value):
    return lambda record: record.__setitem__(name, value)


def set_item(name, pos, value):
    return lambda record: record[name].__setitem__(pos, value)


@pytest.mark.parametrize(
    "dataset, edit, named",
    [
        (Dataset.TWO_WIKI, set_field("supporting_facts", [5]), "'supporting_facts'"),
        (Dataset.TWO_WIKI, set_field("supporting_facts", 5), "'supporting_facts'"),
        (Dataset.TWO_WIKI, set_field("question", 5), "'question'"),
        (Dataset.ADV_HOTPOT, set_field("answer", ["Answer"]), "'answer'"),
        (Dataset.TWO_WIKI, set_item("context", 3, "ab"), "context entry 3"),
        (Dataset.TWO_WIKI, set_item("context", 2, ["Title", ["One.", 2]]), "context entry 2"),
        (Dataset.TWO_WIKI, set_item("context", 4, [7, ["One."]]), "context entry 4"),
        (Dataset.TWO_WIKI, set_field("context", {"Title": ["One."]}), "'context'"),
        (Dataset.MUSIQUE, set_item("paragraphs", 0, "Paragraph text."), "paragraph 0"),
        (Dataset.MUSIQUE, set_item("paragraphs", 1, {"paragraph_text": 7}), "'paragraph_text'"),
        (Dataset.MUSIQUE, set_field("answer", ["Answer"]), "'answer'"),
        (Dataset.MUSIQUE, set_field("question", None), "'question'"),
    ],
    ids=[
        "fact-not-a-list",
        "facts-not-a-list",
        "question-not-a-string",
        "hotpot-answer-a-list",
        "context-entry-a-string",
        "sentence-not-a-string",
        "title-not-a-string",
        "context-an-object",
        "musique-paragraph-a-string",
        "musique-paragraph-text-a-number",
        "musique-answer-a-list",
        "musique-question-null",
    ],
)
def test_malformed_record_is_a_schema_error_naming_place_and_field(tmp_path, dataset, edit, named):
    if dataset is Dataset.MUSIQUE:
        record = json.loads(musique_line(1))
        edit(record)
        path = tmp_path / "data.jsonl"
        path.write_text(musique_line(0) + "\n" + json.dumps(record) + "\n")
        where = f"{path}:2"
    else:
        record = wiki_record(1)
        edit(record)
        path = tmp_path / "data.json"
        path.write_text(json.dumps([wiki_record(0), record]))
        where = f"{path}[1]"
    with pytest.raises(InputError, match=rf"^{re.escape(where)}: .*{re.escape(named)}"):
        load(DatasetConfig(dataset, str(path)))


def test_record_that_is_not_an_object_is_a_schema_error(tmp_path):
    path = tmp_path / "data.json"
    path.write_text(json.dumps([wiki_record(0), 5]))
    with pytest.raises(InputError, match=rf"^{re.escape(str(path))}\[1\]: not an object$"):
        load(DatasetConfig(Dataset.TWO_WIKI, str(path)))


@pytest.mark.parametrize("dataset", [Dataset.TWO_WIKI, Dataset.MUSIQUE])
def test_repeated_instance_id_is_a_schema_error(tmp_path, dataset):
    path = tmp_path / "data"
    if dataset is Dataset.MUSIQUE:
        path.write_text("\n".join(musique_line(i) for i in (0, 1, 0)) + "\n")
        first, second, instance_id = f"{path}:1", f"{path}:3", "2hop__0"
    else:
        path.write_text(json.dumps([wiki_record(i) for i in (0, 1, 0)]))
        first, second, instance_id = f"{path}[0]", f"{path}[2]", "wiki-0"
    message = f"{first} and {second}: repeated instance id {instance_id!r}"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        load(DatasetConfig(dataset, str(path)))


class TestLimit:
    def test_limit_truncates(self, tmp_path):
        path = tmp_path / "syn.json"
        write_synthetic_dataset(path, 10)
        instances = load(DatasetConfig(Dataset.SYNTHETIC, str(path), limit=4))
        assert len(instances) == 4

    def test_limit_beyond_available(self, tmp_path):
        path = tmp_path / "syn.json"
        write_synthetic_dataset(path, 3)
        with pytest.raises(InputError, match="^limit 5 exceeds the 3 available instances$"):
            load(DatasetConfig(Dataset.SYNTHETIC, str(path), limit=5))


class TestSubsample:
    def load_instances(self, tmp_path, n=20):
        path = tmp_path / "syn.json"
        write_synthetic_dataset(path, n)
        return load(DatasetConfig(Dataset.SYNTHETIC, str(path)))

    def test_reproducible_across_runs(self, tmp_path):
        instances = self.load_instances(tmp_path)
        (a,) = subsample(instances, [7], seed=7)
        (b,) = subsample(instances, [7], seed=7)
        assert a == b
        assert len(a) == 7

    def test_nested_prefixes(self, tmp_path):
        instances = self.load_instances(tmp_path)
        small, big = subsample(instances, [5, 12], seed=3)
        assert big[:5] == small

    def test_zero_size(self, tmp_path):
        instances = self.load_instances(tmp_path)
        (empty,) = subsample(instances, [0], seed=1)
        assert empty == []
