import json
import threading
import tracemalloc

import pytest
import requests

from demoforge import gateway
from demoforge.gateway import (
    Attachment,
    AuditLog,
    GatewayConfig,
    GatewayError,
    HttpGateway,
    MockGateway,
    PromptExchange,
    query,
)
from oracles import replies


class TestMockGateway:
    def test_canned_response_zero_retries(self, audit_log):
        gw = MockGateway(replies(["A"]), audit_log)
        assert gw.fresh_session().complete("hello", temperature=0.0) == "A"
        [entry] = AuditLog.read(audit_log.path)
        assert entry.retries == 0
        assert entry.response == "A"
        assert entry.model == "mock"

    def test_dead_transport_is_not_retried(self, audit_log):
        # only HttpGateway retries: a responder's GatewayError passes straight out
        calls = []

        def dead(prompt):
            calls.append(prompt)
            raise GatewayError("connection refused", kind="transport")

        gw = MockGateway(dead, audit_log)
        with pytest.raises(GatewayError) as err:
            gw.fresh_session().complete("hello", temperature=0.0)
        assert err.value.kind == "transport"
        assert calls == ["hello"]
        assert not audit_log.path.exists()

    def test_sessions_are_stateless(self):
        gw = MockGateway(responder=lambda prompt: f"echo:{prompt}")
        s1, s2 = gw.fresh_session(), gw.fresh_session()
        assert s1.complete("same", temperature=0.0) == s2.complete("same", temperature=0.0) == "echo:same"

    def test_session_ids_distinct_and_logged(self, audit_log):
        gw = MockGateway(replies(["x", "y"]), audit_log)
        s1, s2 = gw.fresh_session(), gw.fresh_session()
        s1.complete("p1", temperature=0.0)
        s2.complete("p2", temperature=0.0)
        ids = [e.session_id for e in AuditLog.read(audit_log.path)]
        assert len(set(ids)) == 2
        assert ids[0] == s1.session_id and ids[1] == s2.session_id

    def test_deterministic_given_script(self):
        outs = []
        for _ in range(2):
            gw = MockGateway(replies(["r1", "r2"]))
            s = gw.fresh_session()
            outs.append((s.complete("a", temperature=0.0), s.complete("b", temperature=0.0)))
        assert outs[0] == outs[1]

    def test_empty_prompt_rejected(self):
        gw = MockGateway(replies(["x"]))
        with pytest.raises(ValueError):
            gw.fresh_session().complete("", temperature=0.0)

    def test_temperature_is_required(self, audit_log):
        gw = MockGateway(replies(["x"]), audit_log)
        with pytest.raises(TypeError, match="temperature"):
            gw.fresh_session().complete("hello")
        with pytest.raises(TypeError):
            gw.fresh_session().complete("hello", top_p=0.9, temperature=0.0)
        assert not audit_log.path.exists()


def test_audit_log_file_round_trip(audit_log, monkeypatch):
    monkeypatch.setattr(gateway.time, "monotonic", lambda: 7.0)  # every latency reads 0.0
    gw = MockGateway(replies(["first", "second"]), audit_log)
    s = gw.fresh_session()
    s.complete("p1", attachments=[Attachment(b"\x89PNG", "image/png")], temperature=0.0)
    gw.fresh_session().complete("p2", temperature=0.0)
    # the audit line's bytes: key order, separators and float text are part of the format
    assert audit_log.path.read_text() == (
        '{"session_id": "s000000", "request": "p1", "response": "first", "model": "mock", "latency": 0.0, '
        '"retries": 0, "attachments": [{"media_type": "image/png", "bytes": 4}]}\n'
        '{"session_id": "s000001", "request": "p2", "response": "second", "model": "mock", "latency": 0.0, '
        '"retries": 0, "attachments": []}\n'
    )
    back = AuditLog.read(audit_log.path)
    assert [(e.session_id, e.request, e.response) for e in back] == [("s000000", "p1", "first"), ("s000001", "p2", "second")]
    assert back[0].attachments == [{"media_type": "image/png", "bytes": 4}]


def test_audit_log_without_a_path_keeps_nothing():
    # a gateway with no audit file must not hold its exchanges: a long campaign would grow by every prompt
    gw = MockGateway(responder=lambda prompt: "ok")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(300):
            query(gw, f"{i:05d}" + "x" * 50_000, str, temperature=0.0, failure=RuntimeError)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 2**20


def test_audit_log_is_safe_across_threads(audit_log):
    gw = MockGateway(responder=lambda prompt: f"echo:{prompt}", audit_log=audit_log)

    def work(k):
        for i in range(50):
            gw.fresh_session().complete(f"thread {k} call {i}", temperature=0.0)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    back = AuditLog.read(audit_log.path)  # an interleaved write would not parse
    assert len(back) == 400
    assert len({e.session_id for e in back}) == 400
    assert all(e.response == f"echo:{e.request}" for e in back)
    assert {e.request for e in back} == {f"thread {k} call {i}" for k in range(8) for i in range(50)}


GOOD_EXCHANGE = {"session_id": "s0", "request": "p", "response": "r", "model": "m", "latency": 0.0, "retries": 0}


class TestAuditLogRead:
    """A bad audit line is a ValueError that names its 1-based line number."""

    @staticmethod
    def read_bad(tmp_path, bad: str):
        path = tmp_path / "audit.jsonl"
        path.write_text(json.dumps(GOOD_EXCHANGE) + "\n\n" + bad + "\n")
        with pytest.raises(ValueError, match=r"^line 3: "):
            AuditLog.read(path)

    def test_good_lines_read_around_blank_ones(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        path.write_text("\n" + json.dumps(GOOD_EXCHANGE) + "\n  \n")
        assert [e.to_json() for e in AuditLog.read(path)] == [{**GOOD_EXCHANGE, "attachments": []}]

    def test_text_that_is_not_json(self, tmp_path):
        self.read_bad(tmp_path, "{not json")

    def test_nesting_too_deep_to_parse(self, tmp_path):
        self.read_bad(tmp_path, "[" * 100_000 + "]" * 100_000)

    def test_line_that_is_not_an_object(self, tmp_path):
        self.read_bad(tmp_path, json.dumps([GOOD_EXCHANGE]))

    def test_extra_key(self, tmp_path):
        self.read_bad(tmp_path, json.dumps({**GOOD_EXCHANGE, "extra": 1}))

    def test_missing_key(self, tmp_path):
        self.read_bad(tmp_path, json.dumps({k: v for k, v in GOOD_EXCHANGE.items() if k != "retries"}))

    def test_empty_request(self, tmp_path):
        self.read_bad(tmp_path, json.dumps({**GOOD_EXCHANGE, "request": ""}))


def test_prompt_exchange_requires_request():
    with pytest.raises(ValueError):
        PromptExchange(session_id="s0", request="", response="r", model="m", latency=0.0, retries=0)


class _FakeResponse:
    def __init__(self, status_code, content="ok"):
        self.status_code = status_code
        self._content = content

    def json(self):
        return {"choices": [{"message": {"content": self._content}}]}


class _BodyResponse:
    """A 200 reply with a raw text body, decoded the way requests decodes it."""

    status_code = 200

    def __init__(self, text):
        self.text = text

    def json(self):
        try:
            return json.loads(self.text)
        except json.JSONDecodeError as err:
            raise requests.exceptions.JSONDecodeError(err.msg, err.doc, err.pos) from err


@pytest.fixture
def http_env(monkeypatch):
    monkeypatch.setenv("DEMOFORGE_API_KEY", "sk-test")
    calls = []

    def install(script):
        # script: list of status codes, exceptions or raw 200 replies, consumed per call
        def fake_post(url, json=None, headers=None, timeout=None):
            calls.append({"url": url, "json": json, "headers": headers})
            item = script.pop(0)
            if isinstance(item, Exception):
                raise item
            return item if isinstance(item, _BodyResponse) else _FakeResponse(item, content="answer")

        monkeypatch.setattr(requests, "post", fake_post)
        return calls

    return install


def _gw(audit_log=None, **over):
    cfg = GatewayConfig(endpoint="https://example.invalid/v1/chat", model="m-test", backoff_base=0.0, **over)
    return HttpGateway(cfg, audit_log)


class TestHttpGateway:
    def test_success(self, http_env, audit_log):
        calls = http_env([200])
        gw = _gw(audit_log)
        assert gw.fresh_session().complete("hello", temperature=0.2) == "answer"
        assert calls[0]["headers"]["Authorization"] == "Bearer sk-test"
        assert calls[0]["json"]["temperature"] == 0.2
        assert calls[0]["json"]["model"] == "m-test"
        [entry] = AuditLog.read(audit_log.path)
        assert entry.retries == 0
        assert entry.model == "m-test"

    def test_transient_then_success(self, http_env, audit_log):
        calls = http_env([500, 429, 200])
        gw = _gw(audit_log)
        assert gw.fresh_session().complete("hello", temperature=0.0) == "answer"
        assert len(calls) == 3
        [entry] = AuditLog.read(audit_log.path)
        assert entry.retries == 2

    def test_missing_credential_no_network(self, http_env, monkeypatch):
        calls = http_env([200])
        monkeypatch.delenv("DEMOFORGE_API_KEY")
        with pytest.raises(GatewayError) as err:
            _gw().fresh_session().complete("hello", temperature=0.0)
        assert err.value.kind == "auth"
        assert calls == []  # never touched the wire

    def test_auth_rejection_no_retry(self, http_env):
        calls = http_env([401, 200])
        with pytest.raises(GatewayError) as err:
            _gw().fresh_session().complete("hello", temperature=0.0)
        assert err.value.kind == "auth"
        assert len(calls) == 1

    def test_timeout_exhausts_distinguishably(self, http_env):
        http_env([requests.Timeout("slow")] * 4)
        with pytest.raises(GatewayError) as err:
            _gw().fresh_session().complete("hello", temperature=0.0)
        assert err.value.kind == "exhausted"
        assert "timeout" in str(err.value)

    def test_attachments_serialized(self, http_env):
        calls = http_env([200])
        _gw().fresh_session().complete("look", attachments=[Attachment(b"\x01\x02", "image/jpeg")], temperature=0.0)
        content = calls[0]["json"]["messages"][0]["content"]
        assert content[0] == {"type": "text", "text": "look"}
        assert content[1]["media_type"] == "image/jpeg"
        assert content[1]["data"] == "0102"

    @pytest.mark.parametrize(
        "body",
        [
            "<html>502 bad gateway</html>",
            '{"id": "cmpl-1"}',
            '{"choices": []}',
            "[1, 2]",
            '{"choices": [{"message": "hi"}]}',
            '{"choices": [{"message": {"content": null}}]}',
            '{"choices": [{"message": {"content": 5}}]}',
        ],
    )
    def test_malformed_200_body_is_a_transport_failure(self, http_env, body):
        # not a reply to parse and restart on: the campaign checkpoints and the CLI exits 3
        calls = http_env([_BodyResponse(body), 200])
        with pytest.raises(GatewayError) as err:
            _gw().fresh_session().complete("hello", [], temperature=0.0)
        assert err.value.kind == "transport"
        assert len(calls) == 1

    def test_endpoint_required(self):
        with pytest.raises(ValueError):
            HttpGateway(GatewayConfig())


def test_config_from_dict_rejects_unknown_keys():
    # a misspelt key would otherwise leave its field at the default
    with pytest.raises(ValueError, match="unknown gateway keys"):
        GatewayConfig.from_dict({"endpoint": "https://x", "modle": "m"})
    cfg = GatewayConfig.from_dict({"endpoint": "https://x", "model": "m"})
    assert cfg.endpoint == "https://x"
    assert cfg.model == "m"
    assert cfg.credential_env == "DEMOFORGE_API_KEY"


BAD_GATEWAY_VALUES = [
    {"endpoint": 5},
    {"model": None},
    {"credential_env": ["KEY"]},
    {"max_retries": "3"},
    {"max_retries": -1},
    {"max_retries": 2.0},
    {"max_retries": True},
    {"timeout": 0},
    {"timeout": -1.0},
    {"timeout": float("inf")},
    {"timeout": float("nan")},
    {"timeout": "60"},
    {"backoff_base": -0.5},
    {"backoff_base": float("nan")},
    {"backoff_base": float("inf")},
    {"backoff_base": "1"},
]


@pytest.mark.parametrize("patch", BAD_GATEWAY_VALUES, ids=repr)
def test_config_values_that_would_break_a_completion_rejected(patch):
    (name,) = patch
    with pytest.raises(ValueError, match=f"^{name} must be"):
        GatewayConfig.from_dict({"endpoint": "https://x", "model": "m", **patch})


def test_config_timeout_message_states_its_bound():
    with pytest.raises(ValueError, match="timeout must be a finite number > 0"):
        GatewayConfig.from_dict({"timeout": -1.0})
    with pytest.raises(ValueError, match="backoff_base must be a finite number >= 0"):
        GatewayConfig.from_dict({"backoff_base": -1.0})


def test_config_boundary_values_accepted():
    cfg = GatewayConfig.from_dict({"endpoint": "https://x", "max_retries": 0, "timeout": 0.5, "backoff_base": 0})
    assert (cfg.max_retries, cfg.timeout, cfg.backoff_base) == (0, 0.5, 0)
