"""Shared fixtures: the worked two-hop trace corpus and synthetic batches."""

from __future__ import annotations

import json
import socket
import struct
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Sequence

from gensco.llm import HttpBackend, LlmGateway, ScriptedBackend
from gensco.models import Dataset, MultiHopInstance, Passage
from gensco.pipeline import Generate, PipelineConfig, drive, instance_loop
from gensco.prompts import FIN_KEYWORD, ShotExample, load_shots

TRACE_QUESTION = (
    "What is the place of birth of the director of film The One And Only Ivan (Film)?"
)
TRACE_SUBQ_1 = "Who is the director of the film The One And Only Ivan (Film)?"
TRACE_SUBQ_2 = "What is the place of birth of Thea Sharrock?"
TRACE_ANSWER = "London, England"

TRACE_BODIES = {
    1: "Thea Sharrock (born 1976) is an English theatre and film director. She was born in London, England.",
    2: "Peter Levin is an American director of film, television and theatre.",
    3: "The One and Only is a 1978 comedy film starring Henry Winkler, directed by Carl Reiner and written by Steve Gordon.",
    4: "Andrei Virgil Ivan (born 4 January 1997) is a Romanian professional footballer who plays as a forward for Universitatea Craiova.",
    5: "Katherine Alice Applegate (born October 9, 1956) is an American young adult author.",
    6: "Radu Ivan (born 17 July 1969) is a Romanian judoka who competed at three Olympic Games.",
    7: "Ian Barry is an Australian director of film and TV.",
    8: "The One and Only Ivan is an upcoming American fantasy drama film directed by Thea Sharrock.",
    9: "Dávid Ivan (born 26 February 1995) is a Slovak professional footballer who plays as a midfielder for Serie B club Chievo.",
    10: "Marian Ivan (born 1 June 1969 in Bucharest) is a retired Romanian footballer.",
}

TRACE_SCORES_LEVEL_1 = {
    1: -0.307, 2: -0.334, 3: -0.488, 4: -0.200, 5: -0.654,
    6: -0.070, 7: -0.230, 8: -0.988, 9: -0.296, 10: -0.228,
}
TRACE_SCORES_LEVEL_2 = {
    1: -1.617, 2: -0.101, 3: -0.594, 4: -0.213, 5: -0.481,
    6: -0.207, 7: -0.104, 8: -1.164, 9: -0.347, 10: -0.328,
}


@dataclass
class ScriptedPlan:
    """What the backends should say for one instance.

    subquestions: decomposition completion per level, in order (use
    FIN_KEYWORD to end the decomposition).
    level_scores: mean NLL per passage index for each level that reaches
    passage selection.
    stop_nlls: for the likelihood-stop variant, (without, with-candidate)
    mean NLLs keyed by level.
    """

    subquestions: list[str]
    level_scores: list[dict[int, float]]
    answer: str
    stop_nlls: dict[int, tuple[float, float]] = field(default_factory=dict)

    def reply(self, request):
        """The planned reply to one request of the loop (a baseline's loop
        makes only the answer request)."""
        if request.purpose == "answer":
            return self.answer
        if request.purpose == "decomposition":
            return self.subquestions[request.level - 1]
        if request.purpose == "stop":
            return list(self.stop_nlls[request.level])
        scores = self.level_scores[request.level - 1]
        return [scores[p.index] for p in request.passages]


def plan_requests(inst, cfg: PipelineConfig, plan: ScriptedPlan, shot_bank=(), ranking=None):
    """Drive the variant's loop from the plan alone: ((trace, record),
    [(request, reply)])."""
    log = []

    def reply(request):
        log.append((request, plan.reply(request)))
        return log[-1][1]

    return drive(instance_loop(inst, cfg, shot_bank, "scripted", ranking), reply), log


def build_instance_script(
    backend: ScriptedBackend,
    inst: MultiHopInstance,
    cfg: PipelineConfig,
    plan: ScriptedPlan,
    shot_bank: Sequence[ShotExample] = (),
    ranking=None,
) -> None:
    """Register every request the loop makes for ``inst`` with its planned reply."""
    for request, reply in plan_requests(inst, cfg, plan, shot_bank, ranking)[1]:
        if isinstance(request, Generate):
            backend.add_completion(request.request, reply)
        else:
            for req, nll in zip(request.requests, reply):
                backend.add_logprobs(req, [-nll])


def trace_instance() -> MultiHopInstance:
    passages = tuple(
        Passage(index=i, title="", body=TRACE_BODIES[i]) for i in sorted(TRACE_BODIES)
    )
    return MultiHopInstance(
        id="trace-example",
        question=TRACE_QUESTION,
        gold_answer=TRACE_ANSWER,
        passages=passages,
        supporting_indices=frozenset({1, 8}),
        dataset=Dataset.TWO_WIKI,
    )


def trace_plan(stop_nlls=None) -> ScriptedPlan:
    return ScriptedPlan(
        subquestions=[TRACE_SUBQ_1, TRACE_SUBQ_2, FIN_KEYWORD],
        level_scores=[TRACE_SCORES_LEVEL_1, TRACE_SCORES_LEVEL_2],
        answer=TRACE_ANSWER,
        stop_nlls=stop_nlls if stop_nlls is not None else {2: (1.5, 1.2)},
    )


def scripted_gateway(backend: ScriptedBackend, **kwargs) -> LlmGateway:
    return LlmGateway(backend, backend, **kwargs)


def synthetic_record(i: int, n_passages: int = 5) -> dict:
    context = [
        [
            f"Topic {i} item {j}",
            [f"Entity {i}-{j} is the fact number {j} about topic {i}."],
        ]
        for j in range(n_passages)
    ]
    return {
        "_id": f"syn-{i:03d}",
        "question": f"What is the final fact in the chain for topic {i}?",
        "answer": f"fact number {(i % n_passages)}",
        "context": context,
        "supporting_facts": [[f"Topic {i} item 0", 0], [f"Topic {i} item 1", 0]],
    }


def write_synthetic_dataset(path, n: int, n_passages: int = 5) -> None:
    records = [synthetic_record(i, n_passages) for i in range(n)]
    Path(path).write_text(json.dumps(records), encoding="utf-8")


def synthetic_plan(inst: MultiHopInstance, n_levels: int = 3) -> ScriptedPlan:
    i = int(inst.id.split("-")[1])
    k = len(inst.passages)
    subquestions = [f"Synthetic sub-question {j} for topic {i}?" for j in range(1, n_levels + 1)]
    subquestions.append(FIN_KEYWORD)
    level_scores = [
        {p.index: 0.05 * ((i * 31 + p.index * 17 + level * 7) % 23) + 0.001 * p.index
         for p in inst.passages}
        for level in range(1, n_levels + 1)
    ]
    # Likelihood pairs alternate between continue and stop so the stop
    # variant exercises both outcomes across a batch.
    stop_nlls = {
        level: (1.5, 1.8 if (i + level) % 3 == 0 else 1.2)
        for level in range(2, n_levels + 2)
    }
    return ScriptedPlan(
        subquestions=subquestions,
        level_scores=level_scores,
        answer=inst.gold_answer if i % 2 == 0 else f"wrong guess {i}",
        stop_nlls=stop_nlls,
    )


def synthetic_requests(instances, cfg: PipelineConfig, n_levels: int = 3):
    """Each request the loop makes for the synthetic ``instances``, with
    its planned reply."""
    shot_bank = load_shots(Dataset.SYNTHETIC)
    for inst in instances:
        yield from plan_requests(inst, cfg, synthetic_plan(inst, n_levels), shot_bank)[1]


def build_synthetic_script(
    instances, cfg: PipelineConfig, n_levels: int = 3
) -> ScriptedBackend:
    backend = ScriptedBackend()
    shot_bank = load_shots(Dataset.SYNTHETIC)
    for inst in instances:
        build_instance_script(
            backend, inst, cfg, synthetic_plan(inst, n_levels), shot_bank
        )
    return backend


def echo_reply(req, nll: float):
    """A /completions reply that echoes ``req`` as one token for the prompt
    and one, with logprob ``-nll``, for the continuation."""
    return 200, {"choices": [{"text": req.prompt + req.continuation, "logprobs": {
        "token_logprobs": [None, -nll], "text_offset": [0, len(req.prompt)],
    }}]}


def replies_for(requests, hold: float = 0.0):
    """A StubServer ``reply`` that answers the planned ``(request, reply)``
    pairs as a script of them answers: a completion by its prompt, a scorer
    request by its echo (``echo_reply``), each after ``hold`` seconds."""
    table = {}
    for request, reply in requests:
        if isinstance(request, Generate):
            table[request.request.prompt] = 200, {"choices": [{"text": reply}]}
        else:
            for req, nll in zip(request.requests, reply):
                table[req.prompt + req.continuation] = echo_reply(req, nll)

    def reply(body):
        time.sleep(hold)
        return table[body["prompt"]]

    return reply


# A StubServer reply that resets the connection instead of answering.
RESET = object()


class StubServer(ThreadingHTTPServer):
    """Loopback /completions stub on 127.0.0.1.

    ``reply(body)`` returns the (status, payload) for each POST, the raw
    bytes of a whole response, which are written as they are, or RESET,
    which closes the connection with a TCP reset and no reply. Every
    request is recorded with its path, headers, JSON body and client port,
    so a test can count the TCP connections it came on, and its body's
    bytes are kept in ``raw_bodies``; ``exchanges`` holds, as each reply
    is written, the request's body and the length of the reply's body. A
    POST is in flight from when its body is read until its reply is
    ready; ``peak`` holds the most in flight at once under each
    ``flight_key(body)``. With ``close_after_reply`` set to
    "announced" or "silently" the server closes each connection after one
    response, with or without a ``Connection: close`` header; the silent
    close is what a server's keep-alive timeout does.
    """

    daemon_threads = True

    def __init__(self, reply, close_after_reply=None, flight_key=lambda body: None):
        self.reply = reply
        self.close_after_reply = close_after_reply
        self.flight_key = flight_key
        self.requests = []
        self.raw_bodies = []
        self.exchanges = []
        self.lock = threading.Lock()
        self.in_flight = Counter()
        self.peak = Counter()
        self.closed = threading.Semaphore(0)
        self.release = threading.Event()
        self.backends = []
        super().__init__(("127.0.0.1", 0), StubHandler)
        self.url = f"http://127.0.0.1:{self.server_address[1]}/v1"
        self.thread = threading.Thread(
            target=self.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self.thread.start()

    def backend(self):
        backend = HttpBackend(self.url, "m")
        self.backends.append(backend)
        return backend

    def connections(self):
        return len({port for _, _, _, port in self.requests})

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.closed.release()

    def handle_error(self, request, client_address):
        pass  # the client gave up on a delayed reply

    def stop(self):
        self.release.set()
        for backend in self.backends:
            backend.close()
        self.shutdown()
        self.server_close()
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()


class StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Headers and body go out in two writes; with Nagle on, the body
    # would wait for the client's delayed ACK.
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002
        pass

    def do_POST(self):
        server = self.server
        raw = self.rfile.read(int(self.headers["Content-Length"]))
        body = json.loads(raw)
        key = server.flight_key(body)
        with server.lock:
            server.raw_bodies.append(raw)
            server.requests.append((self.path, self.headers, body, self.client_address[1]))
            server.in_flight[key] += 1
            server.peak[key] = max(server.peak[key], server.in_flight[key])
        try:
            reply = server.reply(body)
        finally:
            with server.lock:
                server.in_flight[key] -= 1
        self.close_connection = server.close_after_reply is not None
        if reply is RESET:
            self.connection.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            self.close_connection = True
            return
        if isinstance(reply, bytes):
            server.exchanges.append((raw, len(reply)))
            self.wfile.write(reply)
            return
        status, payload = reply
        data = json.dumps(payload).encode()
        server.exchanges.append((raw, len(data)))
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if server.close_after_reply == "announced":
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)


class InFlight:
    """Counts the calls in flight through the functions it wraps.

    A call that returns is held open ``hold`` seconds first, so calls
    that may overlap do; a call that raises ends at once.
    """

    def __init__(self, hold: float = 0.005) -> None:
        self.hold = hold
        self.now = 0
        self.peak = 0
        self.started = 0
        self.finished = 0
        self.threads: set = set()
        self._lock = threading.Lock()

    def wrap(self, fn):
        def wrapped(*args, **kwargs):
            with self._lock:
                self.now += 1
                self.started += 1
                self.peak = max(self.peak, self.now)
                self.threads.add(threading.current_thread())
            try:
                result = fn(*args, **kwargs)
                time.sleep(self.hold)
                return result
            finally:
                with self._lock:
                    self.now -= 1
                    self.finished += 1

        return wrapped
