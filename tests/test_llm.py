import dataclasses
import hashlib
import json
import math
import select
import socket
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import orjson
import pytest
from hypothesis import example, given, settings, strategies as st

from gensco import llm
from gensco.llm import (
    BackendUnavailable,
    ContextOverflow,
    GeneratorRequest,
    HttpBackend,
    HttpStatusError,
    LlmGateway,
    LogprobsUnsupported,
    MalformedResponse,
    ScorerRequest,
    ScriptedBackend,
    ScriptMiss,
    scorer_tails,
)
from gensco.models import Dataset, Passage, Variant
from gensco.pipeline import PipelineConfig, run_instance
from gensco.prompts import concat_passages, render_stop_prompt

from helpers import RESET, InFlight, echo_reply, trace_instance


@pytest.fixture(autouse=True)
def no_retry_delay(monkeypatch):
    monkeypatch.setattr(llm, "_RETRY_BASE_DELAY_S", 0.0)


def gateway_for(backend, **kwargs):
    return LlmGateway(backend, backend, **kwargs)


class TestScriptedBackend:
    def test_scripted_echo(self):
        backend = ScriptedBackend()
        req = GeneratorRequest(prompt="where was she born?")
        backend.add_completion(req, "London, England")
        assert gateway_for(backend).generate(req) == "London, England"

    def test_stop_sequence_truncation(self):
        backend = ScriptedBackend()
        req = GeneratorRequest(prompt="p", stop_sequences=("\n",))
        backend.add_completion(req, "A\nB")
        assert gateway_for(backend).generate(req) == "A"

    def test_script_miss(self):
        backend = ScriptedBackend()
        with pytest.raises(ScriptMiss):
            gateway_for(backend).generate(GeneratorRequest(prompt="unknown"))

    def test_scorer_script_miss(self):
        backend = ScriptedBackend()
        with pytest.raises(ScriptMiss):
            gateway_for(backend).score_continuation(ScorerRequest("p", "c"))

    def test_file_round_trip(self, tmp_path):
        backend = ScriptedBackend()
        greq = GeneratorRequest(prompt="p1")
        sreq = ScorerRequest(prompt="p2", continuation=" c")
        backend.add_completion(greq, "x")
        backend.add_logprobs(sreq, [-1.0, -3.0])
        path = tmp_path / "script.json"
        backend.to_file(path)
        loaded = ScriptedBackend.from_file(path)
        assert loaded.complete(greq) == "x"
        assert loaded.token_logprobs(sreq) == [-1.0, -3.0]

    # orjson reads an integer outside -2**63..2**64-1 as a float; a script
    # reads it as json.loads does.
    @pytest.mark.parametrize(
        "logprobs, error",
        [
            ("-123456789012345678901234567890", None),
            (f"{10**308}, {10**308}", "OverflowError.*int too large to convert to float"),
        ],
        ids=["kept-exact", "sum-past-float-range"],
    )
    def test_integer_logprob_past_64_bits_reads_as_json_loads_reads(
        self, tmp_path, logprobs, error
    ):
        req = ScorerRequest(prompt="p", continuation=" c")
        path = tmp_path / "script.json"
        path.write_text(
            f'{{"completions": {{}}, "logprobs": {{"{req.fingerprint}": [{logprobs}]}}}}'
        )
        if error is not None:
            with pytest.raises(ValueError, match=f"not a script file.*{error}"):
                ScriptedBackend.from_file(path)
            return
        value = ScriptedBackend.from_file(path).token_logprobs(req)
        assert value == [-123456789012345678901234567890] and type(value[0]) is int


def mean_nll(logprobs):
    """The mean NLL the gateway returns for a scorer call the backend
    answers with ``logprobs``."""
    backend = ScriptedBackend()
    req = ScorerRequest("p", " c")
    backend.add_logprobs(req, logprobs)
    return gateway_for(backend).score_continuation(req)


class TestScoreContinuation:
    def test_mean_nll_arithmetic(self):
        assert mean_nll([-1.0, -3.0]) == 2.0

    def test_certainty_case(self):
        assert mean_nll([0.0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(MalformedResponse, match="backend scripted .* 0 token logprobs"):
            mean_nll([])

    @given(
        st.lists(st.floats(min_value=-20, max_value=0), min_size=1, max_size=10),
        st.floats(min_value=0.01, max_value=10),
    )
    def test_uniform_nll_shift_moves_mean_exactly(self, logprobs, shift):
        # Scaling every token probability by c < 1 adds ln(1/c) to each NLL.
        base = mean_nll(logprobs)
        shifted = mean_nll([lp - shift for lp in logprobs])
        assert math.isclose(shifted, base + shift, rel_tol=0, abs_tol=1e-9)


class TestCache:
    def test_cold_then_warm_equal(self, tmp_path):
        backend = ScriptedBackend()
        req = ScorerRequest(prompt="p", continuation=" q")
        backend.add_logprobs(req, [-0.5, -1.5])
        gw = gateway_for(backend, cache_dir=tmp_path)
        first = gw.score_continuation(req)
        assert (gw.stats()["cache_misses"], gw.stats()["cache_hits"]) == (1, 0)
        second = gw.score_continuation(req)
        assert (gw.stats()["cache_misses"], gw.stats()["cache_hits"]) == (1, 1)
        assert first == second

    def test_without_cache_dir_nothing_is_stored_and_every_call_misses(self):
        backend = ScriptedBackend()
        greq = GeneratorRequest(prompt="p")
        sreq = ScorerRequest(prompt="p", continuation=" q")
        backend.add_completion(greq, "out")
        backend.add_logprobs(sreq, [-0.5, -1.5])
        gw = gateway_for(backend)
        for _ in range(2):
            assert gw.generate(greq) == "out"
            assert gw.score_continuation(sreq) == 1.0
        for req in (greq, sreq):
            assert gw.cache.get(f"{backend.backend_id}\0{req.fingerprint}") is None
        assert (gw.stats()["cache_misses"], gw.stats()["cache_hits"]) == (4, 0)

    def test_disk_cache_survives_new_gateway(self, tmp_path):
        backend = ScriptedBackend()
        req = GeneratorRequest(prompt="p")
        backend.add_completion(req, "out")
        gw1 = gateway_for(backend, cache_dir=tmp_path)
        assert gw1.generate(req) == "out"
        # Second gateway over an empty script: only the cache can answer.
        gw2 = gateway_for(ScriptedBackend(), cache_dir=tmp_path)
        assert gw2.generate(req) == "out"
        assert gw2.stats()["cache_hits"] == 1

    def test_non_finite_score_is_not_cached(self, tmp_path):
        backend = ScriptedBackend()
        req = ScorerRequest("p", " c")
        backend.add_logprobs(req, [-0.5, math.nan])
        gw = gateway_for(backend, cache_dir=tmp_path)
        for _ in range(2):
            with pytest.raises(MalformedResponse, match="must be finite"):
                gw.score_continuation(req)
        assert list(tmp_path.rglob("*.json")) == []
        assert (gw.stats()["cache_hits"], gw.stats()["cache_misses"]) == (0, 0)

    def test_cached_non_finite_score_raises_on_a_hit(self, tmp_path):
        # The entry a gateway that did not check its scores wrote for a NaN
        # logprob: json.dump writes NaN, and json.loads reads it back.
        req = ScorerRequest("p", " c")
        key = f"scripted\0{req.fingerprint}"
        llm.ResponseCache(tmp_path).put(key, {"token_logprobs": [math.nan], "mean_nll": math.nan})
        (path,) = tmp_path.rglob("*.json")
        assert '"mean_nll": NaN' in path.read_text(encoding="utf-8")
        gw = gateway_for(ScriptedBackend(), cache_dir=tmp_path)
        with pytest.raises(MalformedResponse, match="backend scripted .* mean NLL of nan"):
            gw.score_continuation(req)

    @pytest.mark.parametrize(
        "req, entry",
        [
            (ScorerRequest("p", " c"), {"token_logprobs": [1], "mean_nll": "x"}),
            (ScorerRequest("p", " c"), {"token_logprobs": [1], "mean_nll": True}),
            (ScorerRequest("p", " c"), {"token_logprobs": 1, "mean_nll": 1.0}),
            (ScorerRequest("p", " c"), [1]),
            (GeneratorRequest(prompt="p"), {"text": 5}),
            (GeneratorRequest(prompt="p"), [1]),
        ],
        ids=["score-str-mean", "score-bool-mean", "score-int-logprobs", "score-list",
             "completion-int-text", "completion-list"],
    )
    def test_cache_hit_of_another_shape_raises_without_a_backend_call(self, tmp_path, req, entry):
        llm.ResponseCache(tmp_path).put(f"scripted\0{req.fingerprint}", entry)
        gw = gateway_for(ScriptedBackend(), cache_dir=tmp_path)  # any call would be a ScriptMiss
        call = gw.score_continuation if isinstance(req, ScorerRequest) else gw.generate
        with pytest.raises(MalformedResponse, match="backend scripted: the cache holds"):
            call(req)

    @pytest.mark.parametrize(
        "content", [b'{"text": "x"', b"\xff\xfe"], ids=["truncated", "not-utf8"]
    )
    @pytest.mark.parametrize(
        "req", [GeneratorRequest(prompt="p"), ScorerRequest("p", " c")], ids=["completion", "score"]
    )
    def test_corrupt_cache_file_raises_without_a_backend_call(self, tmp_path, req, content):
        cache = llm.ResponseCache(tmp_path)
        key = f"scripted\0{req.fingerprint}"
        cache.put(key, {"text": "x"})
        (path,) = tmp_path.rglob("*.json")
        path.write_bytes(content)
        backend = ScriptedBackend()  # any call would be a ScriptMiss
        gw = gateway_for(backend, cache_dir=tmp_path)
        call = gw.score_continuation if isinstance(req, ScorerRequest) else gw.generate
        with pytest.raises(MalformedResponse, match="backend scripted: the cache entry") as info:
            call(req)
        assert str(path) in str(info.value)
        assert (gw.stats()["cache_hits"], gw.stats()["cache_misses"]) == (0, 0)
        assert path.read_bytes() == content  # nothing was fetched and stored over it

    def test_finite_check_runs_once_per_miss_and_once_per_hit(self, tmp_path, monkeypatch):
        checked = []
        finite = LlmGateway._finite

        def counted(self, entry, req):
            checked.append(req)
            return finite(self, entry, req)

        monkeypatch.setattr(LlmGateway, "_finite", counted)
        backend = ScriptedBackend()
        req = ScorerRequest("p", " c")
        backend.add_logprobs(req, [-0.5, -1.5])
        gw = gateway_for(backend, cache_dir=tmp_path)
        assert gw.score_continuation(req) == 1.0
        assert len(checked) == 1
        assert gateway_for(ScriptedBackend(), cache_dir=tmp_path).score_continuation(req) == 1.0
        assert len(checked) == 2

    def test_cached_int_past_float_range_raises_on_a_hit(self, tmp_path):
        req = ScorerRequest("p", " c")
        llm.ResponseCache(tmp_path).put(
            f"scripted\0{req.fingerprint}", {"token_logprobs": [1], "mean_nll": 10**400}
        )
        gw = gateway_for(ScriptedBackend(), cache_dir=tmp_path)
        with pytest.raises(MalformedResponse, match="must be finite"):
            gw.score_continuation(req)

    def test_disk_cache_misses_under_another_backend_id(self, tmp_path):
        req = GeneratorRequest(prompt="p")
        first = ScriptedBackend(backend_id="model-a")
        first.add_completion(req, "from a")
        assert gateway_for(first, cache_dir=tmp_path).generate(req) == "from a"
        second = ScriptedBackend(backend_id="model-b")
        second.add_completion(req, "from b")
        gw = gateway_for(second, cache_dir=tmp_path)
        assert gw.generate(req) == "from b"
        assert (gw.stats()["cache_hits"], gw.stats()["cache_misses"]) == (0, 1)

    def test_a_write_that_fails_leaves_no_file_and_a_missing_entry_is_a_miss(self, tmp_path):
        cache = llm.ResponseCache(tmp_path)
        with pytest.raises(TypeError):
            cache.put("k", {"text": object()})
        assert [path for path in tmp_path.rglob("*") if path.is_file()] == []
        assert cache.get("k") is None
        cache.put("k", {"text": "x"})
        assert cache.get("k") == {"text": "x"}
        assert [path.suffix for path in tmp_path.rglob("*") if path.is_file()] == [".json"]

    def test_cache_key_pinned(self, tmp_path):
        # The key is sha256(backend_id + "\0" + fingerprint); changing it
        # makes every existing disk cache miss, so it changes only on purpose.
        backend = ScriptedBackend()
        req = GeneratorRequest(prompt="p")
        backend.add_completion(req, "out")
        gateway_for(backend, cache_dir=tmp_path).generate(req)
        assert [path.stem for path in tmp_path.rglob("*.json")] == [
            "2d2c95366b0d357de2d3aeb0d207747ea62dbe033386122705e1b96db8917774"
        ]
        # Entries fan out by the digest's first two characters, so a cache
        # written by an earlier version still hits.
        (path,) = tmp_path.rglob("*.json")
        assert path.relative_to(tmp_path).parts == ("2d", f"{path.stem}.json")

    def test_each_request_hashed_once(self, monkeypatch):
        hashed = []
        sha256 = hashlib.sha256

        def counted(data=b""):
            hashed.append(data)
            return sha256(data)

        monkeypatch.setattr(llm.hashlib, "sha256", counted)
        n = 5
        generated = [GeneratorRequest(prompt=f"g{i}") for i in range(n)]
        scored = [ScorerRequest(prompt=f"s{i}", continuation=" c") for i in range(n)]
        # Building a request serializes and hashes it, once.
        assert len(hashed) == 2 * n
        backend = ScriptedBackend()
        for greq, sreq in zip(generated, scored):
            backend.add_completion(greq, "out")
            backend.add_logprobs(sreq, [-1.0])
        gw = gateway_for(backend)
        for _ in range(2):  # without a cache_dir, a miss each time
            for greq, sreq in zip(generated, scored):
                gw.generate(greq)
                gw.score_continuation(sreq)
        # Scripted lookups hash nothing more.
        assert len(hashed) == 2 * n
        assert (gw.stats()["cache_misses"], gw.stats()["cache_hits"]) == (4 * n, 0)

    def test_counters_by_purpose(self):
        backend = ScriptedBackend()
        req = GeneratorRequest(prompt="p")
        backend.add_completion(req, "out")
        gw = gateway_for(backend)
        gw.generate(req, purpose="decomposition")
        gw.generate(req, purpose="answer")
        stats = gw.stats()
        assert stats["generator_calls"] == {"decomposition": 1, "answer": 1}


def stored_name(req):
    """The file name of a scripted backend's disk-cache entry for ``req``."""
    return hashlib.sha256(f"scripted\0{req.fingerprint}".encode()).hexdigest()


class TestScoreMany:
    def test_a_malformed_hit_raises_before_any_miss_is_sent(self, tmp_path):
        requests = [ScorerRequest(f"passage {i}", " q") for i in range(3)]
        llm.ResponseCache(tmp_path).put(f"scripted\0{requests[2].fingerprint}", {"text": "x"})
        backend = ScriptedBackend()
        for req in requests[:2]:
            backend.add_logprobs(req, [-1.0])
        flight = InFlight(hold=0.0)
        backend.token_logprobs = flight.wrap(backend.token_logprobs)
        gw = gateway_for(backend, cache_dir=tmp_path)
        with pytest.raises(MalformedResponse, match="backend scripted: the cache holds"):
            gw.score_many(requests, "relevance")
        assert flight.started == 0
        assert len(list(tmp_path.rglob("*.json"))) == 1
        assert (gw.stats()["cache_hits"], gw.stats()["cache_misses"]) == (0, 0)

    def test_a_failed_score_counts_every_hit_and_every_miss_that_returned(self, tmp_path):
        # A hit, a miss, a miss that fails and a hit: both hits and the miss count.
        requests = [ScorerRequest(f"passage {i}", " q") for i in range(4)]
        cache = llm.ResponseCache(tmp_path)
        for req in (requests[0], requests[3]):
            cache.put(f"scripted\0{req.fingerprint}", {"token_logprobs": [-1.0], "mean_nll": 1.0})
        backend = ScriptedBackend()
        backend.add_logprobs(requests[1], [-2.0])
        gw = gateway_for(backend, cache_dir=tmp_path)
        with pytest.raises(ScriptMiss):
            gw.score_many(requests, "stop")
        assert gw.stats() == {
            "generator_calls": {}, "scorer_calls": {"stop": 3}, "cache_hits": 2, "cache_misses": 1
        }
        backend.add_logprobs(requests[2], [-3.0])
        assert gw.score_many(requests, "stop") == [1.0, 2.0, 3.0, 1.0]
        assert gw.stats() == {
            "generator_calls": {}, "scorer_calls": {"stop": 7}, "cache_hits": 5, "cache_misses": 2
        }


def reference_fingerprint(role, fields):
    """The fingerprint as the whole-dict json.dumps writes it."""
    canonical = json.dumps({"role": role, **fields}, ensure_ascii=False, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# Quotes, backslashes, control characters, DEL, non-ASCII and non-BMP
# characters, but no lone surrogates, which UTF-8 cannot encode.
TEXT = st.text(st.characters(blacklist_categories=("Cs",)))
# The same with lone surrogates too.
SURROGATE_TEXT = st.text(st.characters(blacklist_categories=()))
STOP_INSTRUCTION = (
    "Generate a question given its complete decomposition into subquestions along with the"
    " context containing answers to these subquestions."
)
# json.dumps writes 0 and 0.0, and True and 1, differently.
TEMPERATURE = st.one_of(
    st.integers(min_value=-(10**6), max_value=10**6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
)


class TestFingerprint:
    @given(TEXT, TEMPERATURE, st.integers(min_value=0, max_value=10**6),
           st.lists(TEXT, max_size=3))
    def test_generator_fingerprint_hashes_the_json_dumps_text(
        self, prompt, temperature, max_output_tokens, stops
    ):
        req = GeneratorRequest(prompt, temperature, max_output_tokens, tuple(stops))
        assert req.fingerprint == reference_fingerprint("generator", {
            "prompt": prompt,
            "temperature": temperature,
            "max_output_tokens": max_output_tokens,
            "stop_sequences": stops,
        })

    @given(TEXT, TEXT)
    def test_scorer_fingerprint_hashes_the_json_dumps_text(self, prompt, continuation):
        req = ScorerRequest(prompt, continuation)
        assert req.fingerprint == reference_fingerprint(
            "scorer", {"prompt": prompt, "continuation": continuation}
        )

    @given(TEXT, st.lists(TEXT, min_size=1, max_size=4), TEXT)
    def test_shared_head_fingerprints_equal_the_whole_prompts(self, head, tails, continuation):
        shared = ScorerRequest.sharing_head(head, scorer_tails(tails), continuation)
        whole = tuple(ScorerRequest(head + tail, continuation) for tail in tails)
        assert shared == whole
        assert [r.fingerprint for r in shared] == [r.fingerprint for r in whole] == [
            reference_fingerprint("scorer", {"prompt": head + t, "continuation": continuation})
            for t in tails
        ]

    @given(SURROGATE_TEXT, st.lists(SURROGATE_TEXT, min_size=1, max_size=3), TEXT)
    @example("a\ud834", ["\udd1e"], " c")  # a surrogate pair split by the cut
    @example("\udc00", ["t"], " c")
    @example("h", ["t", "\ud800 t"], " c")
    def test_shared_head_fails_like_the_whole_prompts(self, head, tails, continuation):
        def outcome(build):
            try:
                return [r.fingerprint for r in build()]
            except Exception as exc:
                return type(exc)

        assert outcome(
            lambda: ScorerRequest.sharing_head(head, scorer_tails(tails), continuation)
        ) == outcome(lambda: [ScorerRequest(head + tail, continuation) for tail in tails])

    @given(TEXT, TEXT, TEMPERATURE, st.integers(0, 10**6) | st.booleans(), st.lists(TEXT, max_size=3))
    def test_generator_shared_head_fingerprint_equals_the_whole_prompt(
        self, head, tail, temperature, max_output_tokens, stops
    ):
        args = (temperature, max_output_tokens, tuple(stops))
        # Twice: the second request finishes the head's kept hash state.
        for _ in range(2):
            shared = GeneratorRequest.sharing_head(head, tail, *args)
            whole = GeneratorRequest(head + tail, *args)
            assert shared == whole
            assert shared.fingerprint == whole.fingerprint

    def test_generator_heads_kept_apart_by_the_type_of_the_token_cap(self):
        # 1, True and 1.0 are one key to an untyped cache; JSON writes them apart.
        for max_output_tokens in (1, True, 1.0, 1):
            shared = GeneratorRequest.sharing_head("head", " tail", 0.0, max_output_tokens)
            assert shared.fingerprint == GeneratorRequest("head tail", 0.0, max_output_tokens).fingerprint

    @given(SURROGATE_TEXT, SURROGATE_TEXT)
    @example("a\ud834", "\udd1e")  # a surrogate pair split by the cut
    def test_generator_shared_head_fails_like_the_whole_prompt(self, head, tail):
        def outcome(build):
            try:
                return build().fingerprint
            except Exception as exc:
                return type(exc)

        assert outcome(lambda: GeneratorRequest.sharing_head(head, tail)) == outcome(
            lambda: GeneratorRequest(head + tail)
        )

    @given(st.lists(TEXT, min_size=1, max_size=3), st.lists(TEXT, max_size=3), TEXT, TEXT)
    def test_stop_pair_fingerprints_equal_the_whole_prompts(self, bodies, asked, new, question):
        passages = [Passage(i, "", body) for i, body in enumerate(bodies)]
        pair = render_stop_prompt(passages, asked, new)
        shared = ScorerRequest.sharing_head(pair.head, scorer_tails(pair.tails), " " + question)
        whole = tuple(
            ScorerRequest(
                f"{STOP_INSTRUCTION}\nContext: {concat_passages(passages)}\n"
                f"Decomposition: {' '.join(subquestions)}\nQuestion:",
                " " + question,
            )
            for subquestions in (asked, asked + [new])
        )
        assert shared == whole
        assert [r.fingerprint for r in shared] == [r.fingerprint for r in whole]

    def test_disk_cache_file_named_by_sha256_of_backend_id_and_fingerprint(self, tmp_path):
        names = []
        for backend_id in ("scripted", "http:https://host/v1:modèle"):
            backend = ScriptedBackend(backend_id=backend_id)
            req = ScorerRequest("Passage: Zürich\n\"Q\"", " 𝄞 who?")
            backend.add_logprobs(req, [-1.0])
            gateway_for(backend, cache_dir=tmp_path).score_continuation(req)
            key = f"{backend_id}\0{req.fingerprint}"
            names.append(hashlib.sha256(key.encode("utf-8")).hexdigest())
        assert sorted(path.relative_to(tmp_path) for path in tmp_path.rglob("*.json")) == sorted(
            Path(name[:2], f"{name}.json") for name in names
        )


class FlakyBackend:
    backend_id = "flaky"

    def __init__(self, fail_times):
        self.fail_times = fail_times
        self.calls = 0

    def complete(self, req):
        self.calls += 1
        if self.calls <= self.fail_times:
            raise ConnectionError("boom")
        return "ok"

    def token_logprobs(self, req):
        raise NotImplementedError


class TestRetries:
    def test_recovers_within_retry_budget(self):
        backend = FlakyBackend(fail_times=2)
        gw = LlmGateway(backend, backend)
        assert gw.generate(GeneratorRequest(prompt="p")) == "ok"
        assert backend.calls == 3

    def test_gives_up_after_three_attempts(self):
        backend = FlakyBackend(fail_times=10)
        gw = LlmGateway(backend, backend)
        with pytest.raises(BackendUnavailable):
            gw.generate(GeneratorRequest(prompt="p"))
        assert backend.calls == 3


def completion(text):
    return 200, {"choices": [{"text": text}]}


def echo_prompt(body):
    return completion(body["prompt"])


def raw_reply(head, body=b""):
    """A raw response: the status line and header lines, then ``body``."""
    return "".join(line + "\r\n" for line in head).encode() + b"\r\n" + body


def completion_bytes(text):
    return json.dumps(completion(text)[1]).encode()


class TestHttpBackend:
    def test_completion_text_extracted(self, serve, monkeypatch):
        monkeypatch.setenv("GENSCO_API_KEY", "k")
        server = serve(lambda body: completion(" Paris"))
        backend = server.backend()
        assert backend.complete(GeneratorRequest(prompt="q")) == " Paris"
        path, _, body, _ = server.requests[0]
        assert path == "/v1/completions"
        assert body["max_tokens"] == 64

    def test_echoed_logprobs_sliced_to_continuation(self, serve, monkeypatch):
        prompt = "Context: x\nQuestion:"
        continuation = " who?"
        offsets = [0, 8, 19, 20, 24]
        logprobs = [None, -0.5, -0.7, -0.2, -0.4]
        payload = {
            "choices": [
                {
                    "text": "",
                    "logprobs": {"token_logprobs": logprobs, "text_offset": offsets},
                }
            ]
        }
        monkeypatch.setenv("GENSCO_API_KEY", "k")
        backend = serve(lambda body: (200, payload)).backend()
        got = backend.token_logprobs(ScorerRequest(prompt, continuation))
        assert got == [-0.2, -0.4]

    @pytest.mark.parametrize(
        "offsets, logprobs, offset",
        [
            ([0, 8, 12], [None, -0.5, -0.2], 9),  # token at 8 straddles the cut
            ([0, 9, 13], [None, -0.3, None], 13),  # no logprob inside the continuation
            ([0, 9, 13], [None, True, -0.5], 9),  # a boolean is not a logprob
        ],
    )
    def test_partial_continuation_coverage_raises(self, serve, offsets, logprobs, offset):
        payload = {
            "choices": [
                {"text": "", "logprobs": {"token_logprobs": logprobs, "text_offset": offsets}}
            ]
        }
        backend = serve(lambda body: (200, payload)).backend()
        with pytest.raises(LogprobsUnsupported, match=f"offset {offset}"):
            backend.token_logprobs(ScorerRequest("Question:", " who?"))

    def test_echo_post_body_is_the_json_dumps_of_the_request(self, serve):
        # The bytes on the wire, key order included, for any text: quotes,
        # backslashes, control characters, DEL, non-ASCII and non-BMP.
        cut = {}
        server = serve(lambda body: (200, {"choices": [{"text": "", "logprobs": {
            "token_logprobs": [-0.5], "text_offset": [cut["at"]]}}]}))

        @given(model=st.sampled_from(["m", 'q"\\\x00\x7fé𝄞']), prompt=TEXT,
               continuation=TEXT)
        def check(model, prompt, continuation):
            cut["at"] = len(prompt)
            backend = HttpBackend(server.url, model)
            try:
                assert backend.token_logprobs(ScorerRequest(prompt, continuation)) == [-0.5]
            finally:
                backend.close()
            assert server.raw_bodies[-1] == json.dumps({
                "model": model,
                "prompt": prompt + continuation,
                "max_tokens": 0,
                "echo": True,
                "logprobs": 0,
                "temperature": 0.0,
            }).encode()

        check()

    def test_continuation_logprobs_decode_as_json_loads_decodes_them(self, serve):
        # Each value equal by repr to what json.loads gives, subnormals,
        # -0.0 and integers included, and the cache entry the same bytes.
        reply = {}
        server = serve(lambda body: (200, reply["payload"]))
        backend = server.backend()

        # Only lists with a finite sum: an overflowing one is a malformed reply.
        @given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                  st.integers(min_value=-(10**6), max_value=0)),
                        min_size=1, max_size=12).filter(lambda lps: math.isfinite(sum(lps))))
        def check(logprobs):
            reply["payload"] = {"choices": [{"text": "", "logprobs": {
                "token_logprobs": [None, -1.25] + logprobs,
                "text_offset": [0, 4] + [9 + i for i in range(len(logprobs))],
            }}]}
            expected = json.loads(json.dumps(logprobs))
            gw = gateway_for(backend)
            stored = []
            gw.cache.put = lambda key, value: stored.append(value)
            gw.score_continuation(ScorerRequest("Question:", " who is it?"))
            (entry,) = stored
            assert list(map(repr, entry["token_logprobs"])) == list(map(repr, expected))
            assert json.dumps(entry, ensure_ascii=False, sort_keys=True) == json.dumps(
                {"token_logprobs": expected, "mean_nll": -sum(expected) / len(expected)},
                ensure_ascii=False, sort_keys=True,
            )

        check()

    def test_whitespace_before_first_continuation_token_accepted(self, serve):
        payload = {
            "choices": [
                {"text": "", "logprobs": {"token_logprobs": [None, -0.7], "text_offset": [0, 10]}}
            ]
        }
        backend = serve(lambda body: (200, payload)).backend()
        assert backend.token_logprobs(ScorerRequest("Question:", " who?")) == [-0.7]

    def test_missing_logprobs_raises(self, serve, monkeypatch):
        monkeypatch.setenv("GENSCO_API_KEY", "k")
        backend = serve(lambda body: completion("")).backend()
        with pytest.raises(LogprobsUnsupported):
            backend.token_logprobs(ScorerRequest("p", " c"))

    def test_sequential_requests_share_one_connection(self, serve):
        server = serve(echo_prompt)
        backend = server.backend()
        for i in range(5):
            assert backend.complete(GeneratorRequest(prompt=f"p{i}")) == f"p{i}"
        assert len(server.requests) == 5
        assert server.connections() == 1

    @pytest.mark.parametrize("close", ["silently", "announced"])
    def test_connection_closed_by_server_is_replaced_without_retry(self, serve, close):
        server = serve(echo_prompt, close_after_reply=close)
        backend = server.backend()
        for i in range(3):
            # Called without the gateway: a stale connection would raise here.
            assert backend.complete(GeneratorRequest(prompt=f"p{i}")) == f"p{i}"
            assert server.closed.acquire(timeout=5)
        assert server.connections() == 3

    def test_concurrent_threads_get_their_own_responses(self, serve):
        server = serve(echo_prompt)
        backend = server.backend()
        threads_n, per_thread = 4, 25
        wrong, done = [], []

        def worker(t):
            for i in range(per_thread):
                prompt = f"thread {t} request {i}"
                got = backend.complete(GeneratorRequest(prompt=prompt))
                if got != prompt:
                    wrong.append((prompt, got))
            done.append(t)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(done) == list(range(threads_n))
        assert wrong == []
        assert len(server.requests) == threads_n * per_thread
        assert server.connections() <= threads_n

    def test_error_status_raises_named_error_without_retry(self, serve):
        server = serve(lambda body: (500, {"error": "boom"}))
        gw = gateway_for(server.backend())
        with pytest.raises(HttpStatusError) as info:
            gw.generate(GeneratorRequest(prompt="p"))
        assert info.value.status == 500
        assert len(server.requests) == 1

    @pytest.mark.parametrize(
        "reply, call, message",
        [
            (raw_reply(["HTTP/1.1 200 OK", "Content-Length: 8"], b"not json"), "complete",
             "not JSON"),
            ((200, {"error": "model overloaded"}), "complete", "without a choice"),
            ((200, {"choices": []}), "token_logprobs", "without a choice"),
            ((200, {"choices": [{"index": 0}]}), "complete", "without text"),
            ((200, {"choices": [{"text": "", "logprobs": [-0.5]}]}), "token_logprobs",
             "not an object"),
            ((200, {"choices": [{"text": "", "logprobs": {
                "token_logprobs": [None, -0.5], "text_offset": [0]}}]}), "token_logprobs",
             "not lists of one length"),
            *(
                ((200, {"choices": [{"text": "", "logprobs": {
                    "token_logprobs": [None] + [-0.5] * (len(offsets) - 1),
                    "text_offset": offsets}}]}), "token_logprobs", message)
                for offsets, message in [
                    ([0, "1"], "not integers"),
                    ([0, 1.0], "not integers"),
                    ([0, True], "not integers"),
                    ([0, 2, 0, 1], "out of order"),
                    ([0, 1, 3, 2], "out of order"),
                ]
            ),
            *(
                ((200, {"choices": [{"text": "", "logprobs": {
                    "token_logprobs": [None] + logprobs,
                    "text_offset": list(range(len(logprobs) + 1))}}]}), "token_logprobs",
                 "must be finite")
                for logprobs in ([-0.5, math.nan], [math.inf], [-math.inf], [-1e308, -1e308])
            ),
        ],
        ids=["not-json", "error-object", "no-choices", "no-text", "logprobs-list",
             "offsets-short", "offset-string", "offset-float", "offset-bool",
             "offset-back-before-cut", "offset-back-after-cut", "nan-logprob",
             "infinity-logprob", "minus-infinity-logprob", "overflowing-sum"],
    )
    def test_malformed_2xx_reply_raises_named_error_without_retry(
        self, serve, reply, call, message
    ):
        server = serve(lambda body: reply)
        gw = gateway_for(server.backend())
        with pytest.raises(MalformedResponse, match=message) as info:
            if call == "complete":
                gw.generate(GeneratorRequest(prompt="p"))
            else:
                gw.score_continuation(ScorerRequest("p", " c"))
        assert f"backend http:{server.url}:m" in str(info.value)
        assert len(server.requests) == 1

    def test_429_then_200_succeeds_on_the_second_post(self, serve):
        replies = iter([(429, {"error": "slow down"}), completion("ok")])
        server = serve(lambda body: next(replies))
        assert gateway_for(server.backend()).generate(GeneratorRequest(prompt="p")) == "ok"
        assert len(server.requests) == 2

    def test_503_three_times_raises_backend_unavailable(self, serve):
        server = serve(lambda body: (503, {"error": "down"}))
        with pytest.raises(BackendUnavailable, match="HTTP 503"):
            gateway_for(server.backend()).generate(GeneratorRequest(prompt="p"))
        assert len(server.requests) == 3

    @pytest.mark.parametrize(
        "retry_after, wait",
        [("0", 0), ("7", 7), ("3600", llm._MAX_RETRY_AFTER_S), (None, 60.0),
         ("Wed, 21 Oct 2015 07:28:00 GMT", 60.0)],
        ids=["zero", "seconds", "capped", "absent", "http-date"],
    )
    def test_busy_reply_waits_for_numeric_retry_after(self, serve, monkeypatch, retry_after, wait):
        waits = []
        monkeypatch.setattr(llm.time, "sleep", waits.append)
        monkeypatch.setattr(llm, "_RETRY_BASE_DELAY_S", 60.0)
        head = ["HTTP/1.1 503 Service Unavailable", "Content-Length: 0"]
        if retry_after is not None:
            head.append(f"Retry-After: {retry_after}")
        replies = iter([raw_reply(head), completion("ok")])
        server = serve(lambda body: next(replies))
        gw = gateway_for(server.backend())
        assert gw.generate(GeneratorRequest(prompt="p")) == "ok"
        assert waits == [wait]

    def test_context_length_400_raises_context_overflow(self, serve):
        server = serve(lambda body: (400, {"error": "maximum context length exceeded"}))
        gw = gateway_for(server.backend())
        with pytest.raises(ContextOverflow):
            gw.score_continuation(ScorerRequest("p", " c"))
        assert len(server.requests) == 1

    @pytest.mark.parametrize(
        "payload",
        [
            {"error": {
                "message": "This model's maximum context length is 4097 tokens. However, "
                           "your prompt resulted in 5000 tokens.",
                "type": "invalid_request_error", "param": "prompt",
                "code": "context_length_exceeded",
            }},
            {"error": {"message": "Prompt too long.", "code": "context_length_exceeded"}},
            {"object": "error",
             "message": "This model's maximum context length is 2048 tokens. However, you "
                        "requested 2100 tokens (2100 in the messages, 0 in the completion).",
             "type": "BadRequestError", "param": None, "code": 400},
        ],
        ids=["openai", "openai-code-only", "vllm"],
    )
    def test_openai_and_vllm_overflow_replies_raise_context_overflow(self, serve, payload):
        server = serve(lambda body: (400, payload))
        with pytest.raises(ContextOverflow):
            gateway_for(server.backend()).score_continuation(ScorerRequest("p", " c"))
        assert len(server.requests) == 1

    def test_other_400_that_mentions_context_is_an_http_status_error(self, serve):
        payload = {"error": {
            "message": "echo is not supported for this model's context window",
            "type": "invalid_request_error", "param": "echo", "code": "unsupported_value",
        }}
        server = serve(lambda body: (400, payload))
        with pytest.raises(HttpStatusError) as info:
            gateway_for(server.backend()).score_continuation(ScorerRequest("p", " c"))
        assert type(info.value) is HttpStatusError and info.value.status == 400
        assert len(server.requests) == 1

    def test_socket_timeout_retried_then_backend_unavailable(self, serve, monkeypatch):
        monkeypatch.setattr(llm, "_TIMEOUT_S", 0.2)
        server = None

        def stall(body):
            server.release.wait(10)
            return completion("late")

        server = serve(stall)
        gw = gateway_for(server.backend())
        with pytest.raises(BackendUnavailable) as info:
            gw.generate(GeneratorRequest(prompt="p"))
        assert isinstance(info.value.__cause__, TimeoutError)
        assert len(server.requests) == 3

    def test_authorization_header_only_with_api_key(self, serve, monkeypatch):
        monkeypatch.delenv("GENSCO_API_KEY", raising=False)
        server = serve(echo_prompt)
        monkeypatch.setenv("GENSCO_API_KEY", "secret")
        server.backend().complete(GeneratorRequest(prompt="a"))
        monkeypatch.delenv("GENSCO_API_KEY")
        server.backend().complete(GeneratorRequest(prompt="b"))
        (_, with_key, _, _), (_, without_key, _, _) = server.requests
        assert with_key["Authorization"] == "Bearer secret"
        assert "Authorization" not in without_key

    def test_chunked_reply_keeps_connection_in_step(self, serve):
        def chunked(body):
            data = completion_bytes(body["prompt"])
            chunks = b"".join(
                b"%x\r\n%s\r\n" % (len(data[i:i + 7]), data[i:i + 7])
                for i in range(0, len(data), 7)
            )
            return raw_reply(
                ["HTTP/1.1 200 OK", "Transfer-Encoding: chunked"], chunks + b"0\r\n\r\n"
            )

        server = serve(chunked)
        backend = server.backend()
        for i in range(3):
            assert backend.complete(GeneratorRequest(prompt=f"p{i}")) == f"p{i}"
        assert server.connections() == 1

    def test_reply_without_length_read_until_close(self, serve):
        server = serve(
            lambda body: raw_reply(["HTTP/1.1 200 OK"], completion_bytes(body["prompt"])),
            close_after_reply="silently",
        )
        backend = server.backend()
        for i in range(2):
            assert backend.complete(GeneratorRequest(prompt=f"p{i}")) == f"p{i}"
        assert server.connections() == 2

    def test_http_1_0_reply_connection_not_pooled(self, serve):
        def reply(body):
            data = completion_bytes(body["prompt"])
            return raw_reply(["HTTP/1.0 200 OK", f"Content-Length: {len(data)}"], data)

        server = serve(reply)  # keeps the connection open all the same
        backend = server.backend()
        for i in range(2):
            assert backend.complete(GeneratorRequest(prompt=f"p{i}")) == f"p{i}"
        assert server.connections() == 2

    def test_failed_name_lookup_retried_then_backend_unavailable(self, monkeypatch):
        connects = []

        def unresolved(backend):
            connects.append(backend)
            raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")

        monkeypatch.setattr(HttpBackend, "_connect", unresolved)
        gw = gateway_for(HttpBackend("http://backend.test/v1", "m"))
        with pytest.raises(BackendUnavailable) as info:
            gw.generate(GeneratorRequest(prompt="p"))
        assert type(info.value.__cause__) is ConnectionError
        assert "backend.test" in str(info.value.__cause__)
        assert isinstance(info.value.__cause__.__cause__, socket.gaierror)
        assert len(connects) == 3

    def test_malformed_status_line_retried_then_backend_unavailable(self, serve):
        server = serve(lambda body: b"HTPT/1.1 200 OK\r\n\r\n")
        gw = gateway_for(server.backend())
        with pytest.raises(BackendUnavailable) as info:
            gw.generate(GeneratorRequest(prompt="p"))
        assert isinstance(info.value.__cause__, ConnectionError)
        assert len(server.requests) == 3

    def test_conflicting_content_lengths_retried_then_backend_unavailable(self, serve):
        # http.client would read the first length; which one is meant is unknowable.
        data = completion_bytes("x")
        server = serve(lambda body: raw_reply(
            ["HTTP/1.1 200 OK", "Content-Length: 2", f"Content-Length: {len(data)}"], data
        ), close_after_reply="silently")
        gw = gateway_for(server.backend())
        with pytest.raises(BackendUnavailable, match="conflicting Content-Length") as info:
            gw.generate(GeneratorRequest(prompt="p"))
        assert isinstance(info.value.__cause__, ConnectionError)
        assert len(server.requests) == 3

    def test_one_header_name_past_the_line_bound_retried_then_backend_unavailable(self, serve):
        # http.client bounds header lines, not header names.
        data = completion_bytes("x")
        server = serve(lambda body: raw_reply(
            ["HTTP/1.1 200 OK", f"Content-Length: {len(data)}"] + ["X-A: 1"] * 150, data
        ), close_after_reply="silently")
        gw = gateway_for(server.backend())
        with pytest.raises(BackendUnavailable, match="more than 100 response header lines"):
            gw.generate(GeneratorRequest(prompt="p"))
        assert len(server.requests) == 3

    def test_repeated_equal_content_lengths_read(self, serve):
        def reply(body):
            data = completion_bytes(body["prompt"])
            length = f"Content-Length: {len(data)}"
            return raw_reply(["HTTP/1.1 200 OK", length, length.lower()], data)

        server = serve(reply)
        backend = server.backend()
        for i in range(2):
            assert backend.complete(GeneratorRequest(prompt=f"p{i}")) == f"p{i}"
        assert server.connections() == 1

    @pytest.mark.parametrize(
        "response, message",
        [
            (raw_reply(["HTTP/1.1 200 OK", "X-Big: " + "a" * 65536]), "longer than 65536"),
            (raw_reply(["HTTP/1.1 200 OK"] + [f"X-{i}: v" for i in range(101)]), "more than 100"),
            (raw_reply(["HTTP/1.1 200 OK", "no colon here"]), "malformed header"),
            (raw_reply(["HTTP/1.1 200 OK", "Content-Length: 10"], b"short"), "5 of 10"),
            *(
                (raw_reply(["HTTP/1.1 200 OK", "Transfer-Encoding: chunked"],
                           size + b"\r\n" + completion_bytes("x") + b"\r\n0\r\n\r\n"),
                 "malformed chunk size")
                for size in (b"-1", b"+a", b"1_0", b"0x10")
            ),
            # Sizes past what one read can ask for, and never sent.
            *(
                (raw_reply(["HTTP/1.1 200 OK", "Transfer-Encoding: chunked"],
                           size + b"\r\n" + completion_bytes("x") + b"\r\n0\r\n\r\n"),
                 "response body ended after")
                for size in (b"f" * 17, b"7fffffffffffffff")
            ),
            (raw_reply(["HTTP/1.1 200 OK", "Content-Length: " + "9" * 30], b"short"),
             "response body ended after 5 of 9"),
            # Cut off inside the last-chunk line, or before the blank line after the trailers.
            (raw_reply(["HTTP/1.1 200 OK", "Transfer-Encoding: chunked"],
                       b"3\r\n\x00\x00\x00\r\n0"), "before a chunk size line ended"),
            (raw_reply(["HTTP/1.1 200 OK", "Transfer-Encoding: chunked"],
                       b"3\r\nabc\r\n0\r\nX-Trailer: 1\r\n"), "before its last line ended"),
            (raw_reply(["HTTP/1.1 200 OK", "Transfer-Encoding: chunked"],
                       b"3\r\nabcd\r\n0\r\n\r\n"), "chunk data not followed by a line end"),
            (raw_reply(["HTTP/1.1 200 OK", "Content-Length: -5"], b"short"),
             "malformed Content-Length"),
        ],
        ids=["long-line", "101-headers", "no-colon", "short-body", "chunk-size-negative",
             "chunk-size-plus-sign", "chunk-size-underscore", "chunk-size-0x-prefix",
             "chunk-size-17-digits", "chunk-size-7fff", "content-length-30-digits",
             "chunked-cut-in-last-chunk", "chunked-cut-in-trailers", "chunk-longer-than-its-size",
             "content-length-negative"],
    )
    def test_malformed_response_raises_connection_error(self, serve, response, message):
        backend = serve(lambda body: response, close_after_reply="silently").backend()
        with pytest.raises(ConnectionError, match=message):
            backend.complete(GeneratorRequest(prompt="p"))

    def test_malformed_chunk_size_fails_at_once_on_a_kept_alive_connection(
        self, serve, monkeypatch
    ):
        # A size of -1 read as "to the end" would wait for the server's
        # close, which a kept-alive connection never sends.
        monkeypatch.setattr(llm, "_TIMEOUT_S", 2)
        data = completion_bytes("x")
        backend = serve(lambda body: raw_reply(
            ["HTTP/1.1 200 OK", "Transfer-Encoding: chunked"], b"-1\r\n" + data + b"\r\n0\r\n\r\n"
        )).backend()
        started = time.monotonic()
        with pytest.raises(ConnectionError, match="malformed chunk size"):
            backend.complete(GeneratorRequest(prompt="p"))
        assert time.monotonic() - started < 1

    @pytest.mark.parametrize("size", [b"1a", b" 1A ", b"1a;name=value", b"1a ; name"],
                             ids=["lower", "spaces-upper", "extension", "spaced-extension"])
    def test_hex_chunk_size_with_spaces_and_extensions_read(self, serve, size):
        data = completion_bytes("x")
        backend = serve(lambda body: raw_reply(
            ["HTTP/1.1 200 OK", "Transfer-Encoding: chunked"],
            size + b"\r\n" + data[:26] + b"\r\n" + b"%x\r\n" % (len(data) - 26)
            + data[26:] + b"\r\n0\r\n\r\n",
        )).backend()
        assert backend.complete(GeneratorRequest(prompt="p")) == "x"

    def test_request_headers(self, serve):
        server = serve(echo_prompt)
        server.backend().complete(GeneratorRequest(prompt="p"))
        _, headers, _, _ = server.requests[0]
        assert headers["Host"] == f"127.0.0.1:{server.server_address[1]}"
        assert headers["Accept-Encoding"] == "identity"
        assert headers["Content-Type"] == "application/json"

    def test_redirect_not_followed(self, serve):
        server = serve(lambda body: raw_reply(
            ["HTTP/1.1 307 Temporary Redirect", "Location: /elsewhere", "Content-Length: 0"]
        ))
        with pytest.raises(HttpStatusError) as info:
            gateway_for(server.backend()).generate(GeneratorRequest(prompt="p"))
        assert info.value.status == 307
        assert len(server.requests) == 1

    @pytest.mark.parametrize(
        "url",
        [
            "localhost:8000/v1", "ftp://host/v1", "http:///v1", "http://host/v 1",
            # A label past the 63 characters a connect's IDNA encoding allows.
            "http://" + "a" * 64 + ".test/v1",
        ],
    )
    def test_malformed_base_url_rejected(self, url):
        with pytest.raises(ValueError) as info:
            HttpBackend(url, "m")
        assert repr(url) in str(info.value)

    def test_api_key_with_line_break_rejected(self, monkeypatch):
        monkeypatch.setenv("GENSCO_API_KEY", "k\r\nX-Injected: 1")
        with pytest.raises(ValueError):
            HttpBackend("http://host/v1", "m")


class TestMultiplexedScore:
    """One Score of 4 misses with up to 2 POSTs in flight, all written and
    read by the calling thread, against a fault on one of them."""

    REQUESTS = tuple(ScorerRequest(f"Passage {i}.", f" Question {i}?") for i in range(4))
    NLLS = [0.5, 1.25, 2.0, 0.75]

    def index(self, body):
        return int(body["prompt"][len("Passage ")])

    def replies(self, faults=(), hold=0.0):
        """Each request's echo with its NLL after ``hold`` seconds, but the
        replies ``faults`` lists for a request index first, in turn."""
        faults = {i: list(replies) for i, replies in dict(faults).items()}

        def reply(body):
            i = self.index(body)
            if faults.get(i):
                return faults[i].pop(0)
            time.sleep(hold)
            return echo_reply(self.REQUESTS[i], self.NLLS[i])

        return reply

    def gateway(self, server):
        backend = server.backend()
        return LlmGateway(backend, backend, scorer_concurrency=2)

    def posts(self, server):
        return sorted(self.index(body) for _, _, body, _ in server.requests)

    def counts(self, gw):
        stats = gw.stats()
        return stats["scorer_calls"], stats["cache_misses"]

    def test_two_in_flight_from_the_calling_thread_each_reply_to_its_request(
        self, serve, monkeypatch
    ):
        server = serve(self.replies(hold=0.02))
        gw = self.gateway(server)
        writers = []
        send = HttpBackend._send

        def recorded(backend, data):
            writers.append(threading.current_thread())
            return send(backend, data)

        monkeypatch.setattr(HttpBackend, "_send", recorded)
        assert gw.score_many(self.REQUESTS) == self.NLLS
        assert server.peak[None] == 2
        assert writers == [threading.current_thread()] * 4
        assert server.connections() == 2
        assert gw.score_many(self.REQUESTS[::-1]) == self.NLLS[::-1]
        assert server.connections() == 2  # the pooled connections served both Scores

    def test_a_busy_reply_is_retried_once(self, serve):
        busy = raw_reply(
            ["HTTP/1.1 503 Service Unavailable", "Content-Length: 0", "Retry-After: 0"]
        )
        server = serve(self.replies({2: [busy]}))
        gw = self.gateway(server)
        assert gw.score_many(self.REQUESTS) == self.NLLS
        assert self.posts(server) == [0, 1, 2, 2, 3]
        assert self.counts(gw) == ({"relevance": 4}, 4)

    def test_refused_connects_are_retried_after_the_others_return(self, serve, monkeypatch):
        # The first two connects fail before any request is in flight: the
        # other two misses are still sent, and the refused two retried.
        server = serve(self.replies())
        gw = self.gateway(server)
        connects = []
        connect = HttpBackend._connect

        def refused(backend):
            connects.append(len(connects))
            if len(connects) <= 2:
                raise ConnectionRefusedError("the backend is restarting")
            return connect(backend)

        monkeypatch.setattr(HttpBackend, "_connect", refused)
        assert gw.score_many(self.REQUESTS) == self.NLLS
        assert len(connects) == 2 + server.connections() == 4
        assert self.posts(server) == [0, 1, 2, 3]
        assert self.counts(gw) == ({"relevance": 4}, 4)

    def test_a_final_error_stops_the_writes_and_the_reply_in_flight_is_read(self, serve):
        # Request 1's 400 is read while request 0's reply is held, so the
        # connection request 0 frees comes back only after the failure.
        failed = threading.Event()
        answer = self.replies()

        def reply(body):
            i = self.index(body)
            if i == 1 and not failed.is_set():
                failed.set()
                return 400, {"error": "bad request"}
            if i == 0 and not failed.is_set():
                assert failed.wait(5)
                time.sleep(0.05)
            return answer(body)

        server = serve(reply)
        gw = self.gateway(server)
        with pytest.raises(HttpStatusError) as info:
            gw.score_many(self.REQUESTS)
        assert type(info.value) is HttpStatusError and info.value.status == 400
        assert self.posts(server) == [0, 1]  # no later miss was written
        assert self.counts(gw) == ({"relevance": 1}, 1)  # request 0 returned
        # Both connections are in step: the next Score reads its own replies.
        assert gw.score_many(self.REQUESTS[::-1]) == self.NLLS[::-1]
        assert server.connections() == 2

    def test_a_miss_reset_three_times_is_backend_unavailable(self, serve):
        server = serve(self.replies({2: [RESET] * 3}))
        gw = self.gateway(server)
        with pytest.raises(BackendUnavailable) as info:
            gw.score_many(self.REQUESTS)
        assert isinstance(info.value.__cause__, ConnectionError)
        assert self.posts(server) == [0, 1, 2, 2, 2, 3]
        assert self.counts(gw) == ({"relevance": 3}, 3)

    def test_a_miss_without_a_reply_times_out_then_is_backend_unavailable(
        self, serve, monkeypatch
    ):
        monkeypatch.setattr(llm, "_TIMEOUT_S", 0.2)
        server = None
        answer = self.replies()

        def stall(body):
            if self.index(body) == 3:
                server.release.wait(10)
            return answer(body)

        server = serve(stall)
        gw = self.gateway(server)
        with pytest.raises(BackendUnavailable) as info:
            gw.score_many(self.REQUESTS)
        assert isinstance(info.value.__cause__, TimeoutError)
        assert self.posts(server) == [0, 1, 2, 3, 3, 3]
        assert self.counts(gw) == ({"relevance": 3}, 3)

    def test_an_interrupt_in_the_wait_closes_the_connections_in_flight(
        self, serve, monkeypatch
    ):
        server = serve(self.replies())
        gw = self.gateway(server)
        sent = []
        send = HttpBackend._send

        def recorded(backend, data):
            sent.append(send(backend, data))
            return sent[-1]

        def poll():
            poller = select.poll()
            return SimpleNamespace(
                register=poller.register, unregister=poller.unregister,
                poll=lambda timeout: poller.poll(0) if timeout == 0 else interrupt(),
            )

        def interrupt():
            raise KeyboardInterrupt

        monkeypatch.setattr(HttpBackend, "_send", recorded)
        monkeypatch.setattr(llm, "select", SimpleNamespace(poll=poll, POLLIN=select.POLLIN))
        with pytest.raises(KeyboardInterrupt):
            gw.score_many(self.REQUESTS)
        assert len(sent) == 2
        assert [conn.sock.fileno() for conn in sent] == [-1, -1]
        assert gw.scorer._idle == []
        assert self.counts(gw) == ({}, 0)
        for _ in sent:
            assert server.closed.acquire(timeout=5)


class TestDeterminism:
    def test_repeat_runs_byte_identical(self):
        backend = ScriptedBackend()
        req = ScorerRequest(prompt="p", continuation=" tgt")
        backend.add_logprobs(req, [-0.25, -0.5])
        responses = [gateway_for(backend).score_continuation(req) for _ in range(3)]
        assert len({repr(r) for r in responses}) == 1


class TestOrjsonEscaping:
    def test_orjson_escapes_every_code_point_as_json_dumps_does(self):
        # Every code point but the surrogates, in chunks of consecutive ones:
        # the bytes every fingerprint is hashed from.
        step = 0x1000
        for start in range(0, 0x110000, step):
            chunk = "".join(
                chr(c) for c in range(start, start + step) if not 0xD800 <= c <= 0xDFFF
            )
            assert orjson.dumps(chunk) == json.encoder.encode_basestring(chunk).encode(), hex(
                start
            )

    @pytest.mark.parametrize(
        "build",
        [
            lambda: GeneratorRequest("q\ud800"),
            lambda: GeneratorRequest("q", stop_sequences=("\udfff",)),
            lambda: ScorerRequest("p\udc00", " c"),
            lambda: ScorerRequest("p", " c\ud834"),
            lambda: ScorerRequest.sharing_head("h", scorer_tails(["t", "\ud800 t"]), " c"),
            lambda: GeneratorRequest.sharing_head("h\udc00", "t"),
            lambda: GeneratorRequest.sharing_head("h", "t\ud800"),
        ],
        ids=["prompt", "stop", "scorer-prompt", "continuation", "shared-head-tail",
             "generator-shared-head", "generator-shared-tail"],
    )
    def test_lone_surrogate_fails_when_the_request_is_built(self, build):
        with pytest.raises(orjson.JSONEncodeError):
            build()

    def test_lone_surrogate_question_fails_before_any_call(self):
        inst = dataclasses.replace(trace_instance(), question="Who \ud800?")
        gw = gateway_for(ScriptedBackend())  # any call would be a ScriptMiss
        cfg = PipelineConfig.for_dataset(Dataset.TWO_WIKI, Variant.STOP)
        with pytest.raises(orjson.JSONEncodeError):
            run_instance(inst, cfg, gw)
        assert gw.stats() == {
            "generator_calls": {}, "scorer_calls": {}, "cache_hits": 0, "cache_misses": 0
        }


# A value of the first choice: numbers of every kind json.loads reads (NaN
# and ±Infinity included, integers past 64 bits too), nesting, non-ASCII
# text and lone surrogates.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers(-(2**70), 2**70) | SURROGATE_TEXT,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(SURROGATE_TEXT, children, max_size=3),
    max_leaves=12,
)
NUMBERS = st.floats() | st.integers(-(2**70), 2**70)
# A first choice: the fields gensco reads, of the shapes it reads or not, or any keys.
CHOICES = st.fixed_dictionaries({}, optional={
    "text": SURROGATE_TEXT | JSON_VALUES,
    "logprobs": st.fixed_dictionaries({}, optional={
        "token_logprobs": st.lists(st.none() | NUMBERS, max_size=4) | JSON_VALUES,
        "text_offset": st.lists(st.integers(-(2**70), 2**70), max_size=4) | JSON_VALUES,
    }) | JSON_VALUES,
}) | st.dictionaries(SURROGATE_TEXT, JSON_VALUES, max_size=4)


@st.composite
def reply_bodies(draw):
    """A reply body: a JSON document in UTF-8, or in UTF-8 after a BOM,
    UTF-16 or UTF-32, which are refused; maybe spliced with raw bytes, or
    raw bytes alone."""
    if draw(st.integers(0, 3)):
        document = {"choices": [draw(CHOICES)]}
    else:
        document = draw(JSON_VALUES)
    text = json.dumps(document, ensure_ascii=draw(st.booleans()))
    encoding = draw(st.sampled_from(["utf-8"] * 5 + ["utf-8-sig", "utf-16", "utf-32-be"]))
    body = text.encode(encoding, "surrogatepass")
    kind = draw(st.sampled_from(["whole"] * 4 + ["spliced", "raw"]))
    if kind == "spliced":
        at = draw(st.integers(0, len(body)))
        body = body[:at] + draw(st.binary(max_size=3)) + body[at + draw(st.integers(0, 3)):]
    elif kind == "raw":
        body = draw(st.binary(max_size=40))
    return body


def read_fields(choice):
    """The fields of a first choice that gensco reads."""
    fields = {"text": choice.get("text")}
    logprobs = choice.get("logprobs")
    if isinstance(logprobs, dict):
        fields.update(
            token_logprobs=logprobs.get("token_logprobs"), text_offset=logprobs.get("text_offset")
        )
    return fields


def past_64_bits_as_float(value):
    """``value`` with each integer outside -2**63..2**64-1 as its nearest
    float, as orjson reads it."""
    if type(value) is int and not -(2**63) <= value < 2**64:
        return float(value)
    if isinstance(value, list):
        return [past_64_bits_as_float(item) for item in value]
    if isinstance(value, dict):
        return {key: past_64_bits_as_float(item) for key, item in value.items()}
    return value


class TestReplyDecoding:
    def test_reply_gives_json_loads_fields_or_a_named_error(self, serve):
        # A reply json.loads refuses is refused with its message, and one
        # without a choice is named; of any other, each field gensco reads
        # equals by repr (so NaN, -0.0 and int against float count) what
        # json.loads reads, but for an integer past 64 bits, which is its
        # nearest float. Reading the logprobs then returns or names the fault.
        reply = {}
        backend = serve(lambda body: raw_reply(
            ["HTTP/1.1 200 OK", f"Content-Length: {len(reply['body'])}"], reply["body"]
        )).backend()

        named = f"backend {backend.backend_id} replied"

        @settings(max_examples=400, deadline=None)
        @given(reply_bodies())
        # orjson refuses Infinity, so json.loads reads this body.
        @example(
            b'{"choices": [{"text": [Infinity], "logprobs": {"token_logprobs": [],'
            b' "text_offset": [-9223372036854775809]}}]}'
        )
        def check(body):
            reply["body"] = body
            try:
                value = json.loads(body.decode("utf-8"))
            except ValueError as exc:  # UnicodeDecodeError included
                expected = f"{named} with a body that is not JSON ({exc})"
            else:
                choices = value.get("choices") if isinstance(value, dict) else None
                if isinstance(choices, list) and choices and isinstance(choices[0], dict):
                    expected = repr(past_64_bits_as_float(read_fields(choices[0])))
                else:
                    expected = f"{named} without a choice: {body[:200]!r}"
            try:
                choice = backend._post(b"{}")
            except MalformedResponse as exc:
                assert str(exc) == expected
                return
            assert repr(read_fields(choice)) == expected
            try:
                backend._logprobs(ScorerRequest("p", " c"), choice)
            except (MalformedResponse, LogprobsUnsupported):
                pass

        check()

    @pytest.mark.parametrize("big", [2**64, -(2**63) - 1, 2**70])
    def test_text_offset_past_64_bits_is_refused_and_a_logprob_is_its_nearest_float(
        self, serve, big
    ):
        req = ScorerRequest("Question:", " who?")
        payload = {"choices": [{"text": "", "logprobs": {
            "token_logprobs": [None, -1.5], "text_offset": [0, big]}}]}
        backend = serve(lambda body: (200, payload)).backend()
        with pytest.raises(MalformedResponse, match="not integers"):
            backend.token_logprobs(req)
        payload["choices"][0]["logprobs"] = {
            "token_logprobs": [None, big], "text_offset": [0, 9]}
        assert repr(backend.token_logprobs(req)) == repr([float(big)])
