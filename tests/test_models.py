import codecs
import json
import re
from typing import Union, get_args, get_origin, get_type_hints

import pytest
from hypothesis import example, given, settings, strategies as st

from gensco.baselines import Ranking
from gensco.models import (
    AnswerRecord,
    CorruptTrace,
    Dataset,
    GeneratorParams,
    MultiHopInstance,
    Passage,
    Record,
    ScoredCandidate,
    SelectionTrace,
    StopReason,
    SubQuestion,
    TraceLevel,
    ValidationError,
    Variant,
    load_json,
    read_jsonl,
    replay_trace,
)
from gensco.prompts import ShotExample

from helpers import trace_instance


def make_instance(**overrides):
    fields = dict(
        id="x1",
        question="Who directed the film?",
        gold_answer="Somebody",
        passages=(Passage(0, "T", "Body text."),),
        supporting_indices=frozenset({0}),
        dataset=Dataset.SYNTHETIC,
    )
    fields.update(overrides)
    return MultiHopInstance(**fields)


class TestValidateInstance:
    """Building a MultiHopInstance checks its invariants."""

    def test_valid_ten_passage_instance(self):
        inst = trace_instance()
        assert len(inst.passages) == 10
        assert inst.supporting_indices == {1, 8}

    def test_empty_passage_set(self):
        with pytest.raises(ValidationError, match="has no candidate passages"):
            make_instance(passages=(), supporting_indices=None)

    def test_dangling_support_index(self):
        passages = tuple(Passage(i, "", f"body {i}") for i in range(10))
        with pytest.raises(ValidationError, match="do not refer to any passage"):
            make_instance(passages=passages, supporting_indices=frozenset({12}))

    def test_blank_question(self):
        with pytest.raises(ValidationError, match="has a blank question"):
            make_instance(question="   ")

    def test_blank_passage_body(self):
        with pytest.raises(ValueError):
            make_instance(passages=(Passage(0, "t", "  "),), supporting_indices=None)

    def test_duplicate_passage_index(self):
        passages = (Passage(0, "", "a"), Passage(0, "", "b"))
        with pytest.raises(ValueError):
            make_instance(passages=passages, supporting_indices=None)


def sample_trace():
    levels = (
        TraceLevel(
            sub_question=SubQuestion(1, "Who directed it?"),
            candidates=(
                ScoredCandidate(1, 0, 0.4),
                ScoredCandidate(1, 1, 0.2),
            ),
            chosen_index=1,
        ),
    )
    return SelectionTrace(
        instance_id="x1",
        variant=Variant.STOP,
        levels=levels,
        stop_reason=StopReason.FIN_KEYWORD,
        selected_sequence=(1,),
    )


class TestSerialization:
    def test_instance_round_trip(self):
        inst = trace_instance()
        assert MultiHopInstance.from_dict(inst.to_dict()) == inst

    def test_trace_round_trip(self):
        trace = sample_trace()
        assert SelectionTrace.from_dict(trace.to_dict()) == trace

    def test_answer_record_round_trip(self):
        rec = AnswerRecord(
            instance_id="x1",
            predicted_answer="London",
            context_order=(8, 1),
            generator_params=GeneratorParams("scripted", 0.0, 2),
            permutation=(1, 0),
        )
        assert AnswerRecord.from_dict(rec.to_dict()) == rec

    def test_none_supports_round_trip(self):
        inst = make_instance(supporting_indices=None)
        assert MultiHopInstance.from_dict(inst.to_dict()) == inst

    @given(
        st.lists(
            st.tuples(st.text(max_size=20), st.text(min_size=1, max_size=50)),
            min_size=1,
            max_size=5,
        )
    )
    def test_passage_list_round_trip(self, pairs):
        passages = tuple(
            Passage(i, title, body) for i, (title, body) in enumerate(pairs)
        )
        assert tuple(
            Passage.from_dict(p.to_dict()) for p in passages
        ) == passages


def sample_answer(permutation=(1, 0)):
    return AnswerRecord(
        instance_id="x1",
        predicted_answer="London",
        context_order=(8, 1),
        generator_params=GeneratorParams("scripted", 0.0, 2),
        permutation=permutation,
    )


RECORD_SAMPLES = {
    type(sample): sample
    for sample in (
        Passage(3, "Title", "Body text."),
        make_instance(supporting_indices=frozenset({0})),
        SubQuestion(2, "FIN", terminal=True),
        ScoredCandidate(1, 4, 0.25),
        sample_trace().levels[0],
        sample_trace(),
        GeneratorParams("scripted", 0.7, 4),
        sample_answer(),
        Ranking("x1", (2, 0, 1)),
        ShotExample("Who?", "Context.", "Me"),
    )
}


def wrong_json_value(hint):
    """A JSON value of the wrong type for a field annotated ``hint``."""
    if get_origin(hint) is Union:
        return wrong_json_value(get_args(hint)[0])
    if get_origin(hint) in (tuple, frozenset):
        return "01"  # a string for a list
    if isinstance(hint, type) and issubclass(hint, Record):
        return [1]  # a list for an object
    return {str: 5, int: True, float: "0.5", bool: 0}.get(hint, 5)  # an enum: a number


FIELDS = [
    (cls, name, hint) for cls in RECORD_SAMPLES for name, hint in get_type_hints(cls).items()
]


class TestFileForm:
    """The dict form each record is written as, key for key."""

    def test_instance_with_and_without_supports(self):
        # A set iterates {1, 8} as 8, 1: the file holds them sorted.
        passages = tuple(Passage(i, f"T{i}", f"Body {i}.") for i in (8, 1))
        inst = make_instance(passages=passages, supporting_indices=frozenset({1, 8}))
        expected = {
            "id": "x1",
            "question": "Who directed the film?",
            "gold_answer": "Somebody",
            "passages": [
                {"index": 8, "title": "T8", "body": "Body 8."},
                {"index": 1, "title": "T1", "body": "Body 1."},
            ],
            "supporting_indices": [1, 8],
            "dataset": "synthetic",
        }
        assert inst.to_dict() == expected
        no_supports = make_instance(passages=passages, supporting_indices=None)
        assert no_supports.to_dict() == {**expected, "supporting_indices": None}

    def test_trace(self):
        assert sample_trace().to_dict() == {
            "instance_id": "x1",
            "variant": "gensco-stop",
            "levels": [
                {
                    "sub_question": {"level": 1, "text": "Who directed it?", "terminal": False},
                    "candidates": [
                        {"level": 1, "passage_index": 0, "score": 0.4},
                        {"level": 1, "passage_index": 1, "score": 0.2},
                    ],
                    "chosen_index": 1,
                }
            ],
            "stop_reason": "fin_keyword",
            "selected_sequence": [1],
        }

    def test_answer_with_and_without_permutation(self):
        expected = {
            "instance_id": "x1",
            "predicted_answer": "London",
            "context_order": [8, 1],
            "generator_params": {"model_id": "scripted", "temperature": 0.0, "shots": 2},
            "permutation": [1, 0],
        }
        assert sample_answer().to_dict() == expected
        assert sample_answer(None).to_dict() == {**expected, "permutation": None}

    @pytest.mark.parametrize("cls", Record.__subclasses__(), ids=lambda cls: cls.__name__)
    def test_every_record_round_trips_through_json(self, cls):
        assert cls in RECORD_SAMPLES, f"no sample for {cls.__name__}"
        sample = RECORD_SAMPLES[cls]
        assert cls.from_dict(json.loads(json.dumps(sample.to_dict()))) == sample

    def test_absent_optional_and_extra_keys(self):
        d = {**sample_answer().to_dict(), "extra": 1}
        del d["permutation"]
        assert AnswerRecord.from_dict(d) == sample_answer(None)
        del d["context_order"]
        with pytest.raises(KeyError):
            AnswerRecord.from_dict(d)


class TestDecode:
    """What ``from_dict`` accepts of a record read back from JSON."""

    @pytest.mark.parametrize(
        "cls,name,hint", FIELDS, ids=[f"{cls.__name__}.{name}" for cls, name, _ in FIELDS]
    )
    def test_wrong_json_type_names_the_field(self, cls, name, hint):
        d = {**RECORD_SAMPLES[cls].to_dict(), name: wrong_json_value(hint)}
        with pytest.raises(TypeError, match=rf"^{cls.__name__}\.{name}: "):
            cls.from_dict(d)

    @pytest.mark.parametrize(
        "cls,name,value",
        [
            (AnswerRecord, "context_order", [True]),
            (AnswerRecord, "context_order", ["8"]),
            (MultiHopInstance, "supporting_indices", [1.5]),
            (MultiHopInstance, "passages", [{"index": 0, "title": "T", "body": 5}]),
            (SelectionTrace, "stop_reason", "no_such_reason"),
        ],
        ids=["bool-in-tuple", "string-in-tuple", "float-in-set", "nested-field", "unknown-enum"],
    )
    def test_wrong_element_names_the_field(self, cls, name, value):
        d = {**RECORD_SAMPLES[cls].to_dict(), name: value}
        with pytest.raises(TypeError, match=rf"^{cls.__name__}\.{name}: "):
            cls.from_dict(d)

    @pytest.mark.parametrize("d", [[], "x1", 5, None], ids=["list", "string", "number", "null"])
    def test_record_that_is_not_an_object(self, d):
        with pytest.raises(TypeError):
            AnswerRecord.from_dict(d)

    def test_int_for_a_float_round_trips(self):
        d = {"model_id": "scripted", "temperature": 0, "shots": 2}
        assert GeneratorParams.from_dict(d).to_dict() == d
        assert ScoredCandidate.from_dict({"level": 1, "passage_index": 4, "score": 1}).score == 1

    def test_instance_read_back_checks_its_invariants(self):
        d = {**RECORD_SAMPLES[MultiHopInstance].to_dict(), "supporting_indices": [3]}
        with pytest.raises(ValidationError, match="do not refer to any passage"):
            MultiHopInstance.from_dict(d)


class TestReadJsonl:
    def test_skips_blank_lines_and_decodes(self, tmp_path):
        path = tmp_path / "answers.jsonl"
        line = json.dumps(sample_answer().to_dict())
        path.write_text(f"\n{line}\n  \n{line}\n")
        assert list(read_jsonl(path, AnswerRecord.from_dict)) == [sample_answer()] * 2
        assert list(read_jsonl(path)) == [sample_answer().to_dict()] * 2

    @pytest.mark.parametrize(
        "bad,named",
        [
            ("{broken", "JSONDecodeError"),
            ("{}", "KeyError.*instance_id"),
            ('{"instance_id": 1}', "TypeError.*AnswerRecord.instance_id"),
        ],
        ids=["not-json", "missing-field", "wrong-type"],
    )
    def test_bad_line_names_file_and_line(self, tmp_path, bad, named):
        path = tmp_path / "answers.jsonl"
        path.write_text(json.dumps(sample_answer().to_dict()) + "\n\n" + bad + "\n")
        with pytest.raises(CorruptTrace, match=f"^{path}:3: .*{named}"):
            list(read_jsonl(path, AnswerRecord.from_dict))


# JSON values of every kind json.dumps writes: NaN and ±Infinity, integers
# past 64 bits, non-ASCII text and lone surrogates.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.floats()
    | st.integers()
    | st.integers(-(2**70), 2**70)
    | st.text(st.characters(blacklist_categories=()), max_size=5),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=8,
)
# JSON's whitespace, and characters that str.strip takes for whitespace but JSON does not.
WHITESPACE = st.text(st.sampled_from(" \t\n\r\x0b\x0c\x1c\x85\xa0\u2028\u3000"), max_size=3)


@st.composite
def json_texts(draw) -> str:
    """A value as json.dumps writes it, an object with repeated keys, or a
    value nested up to 2,000 deep, closed or not."""
    kind = draw(st.sampled_from(["value", "value", "repeated-keys", "deep"]))
    if kind == "value":
        return json.dumps(draw(JSON_VALUES), ensure_ascii=draw(st.booleans()))
    if kind == "repeated-keys":
        pairs = draw(
            st.lists(st.tuples(st.sampled_from("ab"), JSON_VALUES), min_size=1, max_size=4)
        )
        return "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pairs) + "}"
    depth = draw(st.integers(1, 2000))
    opener, closer = draw(st.sampled_from([("[", "]"), ('{"k": ', "}")]))
    closed = draw(st.booleans())
    return opener * depth + json.dumps(draw(JSON_VALUES)) + closer * (depth if closed else 0)


@st.composite
def json_documents(draw) -> bytes:
    """A JSON text between whitespace in UTF-8, lone surrogates included, maybe
    after a BOM, maybe spliced with raw bytes; or raw bytes alone."""
    text = draw(WHITESPACE) + draw(json_texts()) + draw(WHITESPACE)
    raw = text.encode("utf-8", "surrogatepass")
    if draw(st.integers(0, 7)) == 0:
        raw = codecs.BOM_UTF8 + raw
    kind = draw(st.sampled_from(["whole"] * 4 + ["spliced", "raw"]))
    if kind == "spliced":
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.binary(max_size=3)) + raw[at + draw(st.integers(0, 3)):]
    elif kind == "raw":
        raw = draw(st.binary(max_size=40))
    return raw


def reference_loads(raw):
    return json.loads(raw.decode("utf-8"))


def decoded(loads, raw):
    """("ok", the value's repr) or (the error's type, its message). Both
    readers are called through the same frames, so that json.loads meets
    the same recursion limit under each."""
    try:
        return "ok", repr(loads(raw))
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError included
        return type(exc).__name__, str(exc)


class TestLoadJson:
    @settings(max_examples=400, deadline=None)
    @given(json_documents())
    @example(b"123456789012345678901234567890")  # orjson: 1.2345678901234568e+29
    @example(b'{"a": [-9223372036854775809]}')
    @example(b"[" * 300 + b"]" * 300)  # orjson reads nesting of any depth
    @example(b"[" * 5000 + b"]" * 5000)  # json.loads: past its depth
    @example(b'[NaN, "\\ud800"]')
    @example(codecs.BOM_UTF8 + b"{}")
    def test_reads_as_json_loads_reads(self, raw):
        # The same documents accepted, the same value for each (by repr, so
        # NaN, -0.0 and int against float count) and the same error and
        # message for each refused one.
        assert decoded(load_json, raw) == decoded(reference_loads, raw)


def text_mode_records(path):
    """The records and the first failure, as (line, repr of the error), of
    read_jsonl as it read a file in text mode; a line holding a byte that
    is not UTF-8 fails with a UnicodeDecodeError."""
    records = []
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if re.search("[\udc80-\udcff]", line):
                return records, (lineno, "UnicodeDecodeError")
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except (ValueError, RecursionError) as exc:
                return records, (lineno, repr(exc))
    return records, None


def read_records(path):
    """What read_jsonl yields before its CorruptTrace, as text_mode_records has it."""
    records = []
    try:
        for record in read_jsonl(path):
            records.append(record)
    except CorruptTrace as exc:
        pattern = rf"{re.escape(str(path))}:(\d+): not a record \((.*)\)"
        named = re.fullmatch(pattern, str(exc), re.S)
        error = named[2]
        if error.startswith("UnicodeDecodeError("):
            error = "UnicodeDecodeError"
        return records, (int(named[1]), error)
    return records, None


@st.composite
def jsonl_files(draw) -> bytes:
    """Documents and blank lines, each ended by "\\n", "\\r\\n" or "\\r",
    the last maybe not."""
    lines = draw(st.lists(
        json_documents() | WHITESPACE.map(lambda text: text.encode("utf-8")), max_size=5
    ))
    ends = [draw(st.sampled_from([b"\n", b"\r\n", b"\r"])) for _ in lines]
    if lines and draw(st.booleans()):
        ends[-1] = b""
    return b"".join(line + end for line, end in zip(lines, ends))


class TestReadJsonlAsTextMode:
    @settings(max_examples=200, deadline=None)
    @given(jsonl_files())
    @example('{"a": 1}\r\n\xa0\r{"b":\n'.encode("utf-8"))  # a line str.strip blanks
    @example(b'{"a": 1}\n\xff{}\n')
    def test_reads_each_line_as_text_mode_did(self, tmp_path_factory, content):
        path = tmp_path_factory.mktemp("jsonl") / "records.jsonl"
        path.write_bytes(content)
        records, failure = read_records(path)
        expected, expected_failure = text_mode_records(path)
        assert (repr(records), failure) == (repr(expected), expected_failure)


def text_mode_lines(raw):
    return raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n").splitlines(keepends=True)


def strip_first_read_jsonl(path, decode=lambda record: record):
    """read_jsonl as it decoded and stripped every line before parsing it."""
    with open(path, "rb") as fh:
        lines = text_mode_lines(fh.read())
    for lineno, line in enumerate(lines, start=1):
        try:
            if not line.decode("utf-8").strip():
                continue
            record = decode(load_json(line))
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise CorruptTrace(f"{path}:{lineno}: not a record ({exc!r})") from exc
        yield record


def read_until_corrupt(reader, path, decode):
    """The records a reader yields and the message of its CorruptTrace, if any."""
    records = []
    try:
        for record in reader(path, decode):
            records.append(record)
    except CorruptTrace as exc:
        return repr(records), str(exc)
    return repr(records), None


RANKING_LINES = st.fixed_dictionaries(
    {"instance_id": st.text(max_size=3) | st.integers(), "ranking": st.lists(
        st.integers(0, 9) | st.sampled_from(["1", None, 1.5]), max_size=3
    )}
).map(json.dumps)
JSONL_LINES = st.one_of(
    json_documents(),
    WHITESPACE.map(lambda text: text.encode("utf-8")),
    # Integers at and past 64 bits, and nesting about the depth at which
    # load_json leaves orjson for json.loads.
    st.integers(-(10**20), 10**20).map(lambda n: f'{{"k": {n}}}'.encode()),
    st.integers(250, 260).map(lambda depth: b"[" * depth + b"1" + b"]" * depth),
    RANKING_LINES.map(str.encode),
    st.binary(max_size=6),
)
DECODERS = {
    "as-is": lambda record: record,
    "key-k": lambda record: record["k"],
    "ranking": Ranking.from_dict,
}


class TestReadJsonlParseFirst:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(JSONL_LINES, st.sampled_from([b"\n", b"\r\n", b"\r"])), max_size=6),
        st.booleans(),
        st.sampled_from(sorted(DECODERS)),
    )
    @example([("\u2028 \x85\u3000".encode(), b"\r\n"), (b'{"k": 1}', b"\r")], False, "key-k")
    @example([(b"[" * 256 + b"]" * 256, b"\n")], True, "as-is")
    @example([(b'{"k": 12345678901234567890}', b"\n"), (b"\xff", b"\n")], False, "key-k")
    def test_same_records_and_message_as_the_strip_first_reader(
        self, tmp_path_factory, lines, unended, decoder
    ):
        content = b"".join(line + end for line, end in lines)
        if unended and lines:
            content = content[: -len(lines[-1][1])]
        path = tmp_path_factory.mktemp("jsonl") / "records.jsonl"
        path.write_bytes(content)
        decode = DECODERS[decoder]
        assert read_until_corrupt(read_jsonl, path, decode) == read_until_corrupt(
            strip_first_read_jsonl, path, decode
        )


class TestReplayTrace:
    def test_consistent_trace_replays(self):
        assert replay_trace(sample_trace())

    def test_non_argmin_choice_detected(self):
        trace = sample_trace()
        bad = SelectionTrace(
            instance_id=trace.instance_id,
            variant=trace.variant,
            levels=(
                TraceLevel(
                    sub_question=trace.levels[0].sub_question,
                    candidates=trace.levels[0].candidates,
                    chosen_index=0,
                ),
            ),
            stop_reason=trace.stop_reason,
            selected_sequence=(0,),
        )
        assert not replay_trace(bad)

    def test_sequence_level_mismatch_detected(self):
        trace = sample_trace()
        bad = SelectionTrace(
            instance_id=trace.instance_id,
            variant=trace.variant,
            levels=trace.levels,
            stop_reason=trace.stop_reason,
            selected_sequence=(1, 1),
        )
        assert not replay_trace(bad)

    def test_tie_breaks_to_lowest_index(self):
        levels = (
            TraceLevel(
                sub_question=SubQuestion(1, "q?"),
                candidates=(ScoredCandidate(1, 3, 0.5), ScoredCandidate(1, 5, 0.5)),
                chosen_index=3,
            ),
        )
        trace = SelectionTrace("x", Variant.MAX, levels, StopReason.MAX_LEVELS, (3,))
        assert replay_trace(trace)
