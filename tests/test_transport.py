"""The one HTTP client and its one retry policy, driven over loopback.

A ``ThreadingHTTPServer`` on 127.0.0.1 answers every request with one
scripted reply and records what it was sent.  The default transports of
``LiveAdapter`` (an RPC kind and an explorer kind) and of
``OpenAIChatBackend`` talk to it; the backoffs are recorded, not slept.
"""

from __future__ import annotations

import http.server
import json
import socket
import threading
import urllib.parse
from dataclasses import dataclass, field
from typing import Any, Callable

import pytest

from conftest import LOOPBACK
from txpostmortem import transport
from txpostmortem.agents import backend as backend_module
from txpostmortem.agents.backend import BackendError, OpenAIChatBackend
from txpostmortem.gateway import live
from txpostmortem.gateway.base import UpstreamError
from txpostmortem.gateway.live import ErrorReply, LiveAdapter
from txpostmortem.gateway.types import DataRequest

ADDR = "0x" + "ab" * 20
TX = "0x" + "cd" * 32

#: The backoffs of a call that fails every attempt.
ALL_BACKOFFS = [0.5, 1.0]


@dataclass
class Seen:
    method: str
    path: str
    headers: dict[str, str]
    body: bytes


@dataclass
class Loopback:
    """What the server answers (``status``, ``body``) and what it was sent."""

    url: str
    status: int = 200
    body: bytes = b"{}"
    seen: list[Seen] = field(default_factory=list)
    sleeps: list[float] = field(default_factory=list)

    def reply(self, status: int, doc: Any = None, raw: bytes | None = None) -> None:
        self.status = status
        self.body = raw if raw is not None else json.dumps(doc).encode()


@pytest.fixture
def loopback(monkeypatch):
    def serve(handler: http.server.BaseHTTPRequestHandler) -> None:
        length = int(handler.headers.get("Content-Length") or 0)
        state.seen.append(
            Seen(handler.command, handler.path, dict(handler.headers), handler.rfile.read(length))
        )
        handler.send_response(state.status)
        handler.send_header("Content-Type", "application/json")
        handler.send_header("Content-Length", str(len(state.body)))
        handler.end_headers()
        handler.wfile.write(state.body)

    class Handler(http.server.BaseHTTPRequestHandler):
        do_GET = do_POST = serve

        def log_message(self, *args: Any) -> None:
            pass

    server = http.server.ThreadingHTTPServer((LOOPBACK, 0), Handler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01})
    thread.start()
    state = Loopback(url=f"http://{LOOPBACK}:{server.server_address[1]}/")
    # A proxy named in the environment must not see loopback requests.
    monkeypatch.setenv("no_proxy", LOOPBACK)
    monkeypatch.setattr(transport.time, "sleep", state.sleeps.append)
    try:
        yield state
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


def _closed_port_url() -> str:
    with socket.socket() as probe:
        probe.bind((LOOPBACK, 0))
        port = probe.getsockname()[1]
    return f"http://{LOOPBACK}:{port}/"


def _rpc(url: str, monkeypatch) -> Any:
    adapter = LiveAdapter(env={}, rpc_map={1: url})
    request = DataRequest(kind="storage_slot", chainid=1, target=ADDR,
                          extra={"slot": "0x2", "block": 5})
    return adapter.fetch(request)


def _explorer(url: str, monkeypatch) -> Any:
    monkeypatch.setattr(live, "EXPLORER_API_URL", f"{url}api")
    adapter = LiveAdapter(env={"ETHERSCAN_API_KEY": "key"}, rpc_map={1: "http://node"})
    return adapter.fetch(DataRequest(kind="txlist", chainid=1, target=ADDR, block_lo=1, block_hi=9))


def _model(url: str, monkeypatch) -> Any:
    monkeypatch.setattr(backend_module, "CHAT_COMPLETIONS_URL", url)
    backend = OpenAIChatBackend(api_key="sk-test")
    return backend.step(backend.open_conversation("analyst", "system says"), "go")


@dataclass(frozen=True)
class Client:
    """One live path through its default transport."""

    call: Callable[[str, Any], Any]
    #: What a final status, and what used-up retries, raise.
    final: type[Exception]
    exhausted: type[Exception]
    #: What a 2xx body that is not JSON raises, matching ``malformed``.
    malformed: str


CLIENTS = {
    "rpc": Client(_rpc, ErrorReply, UpstreamError, "malformed reply"),
    "explorer": Client(_explorer, ErrorReply, UpstreamError, "malformed reply"),
    "model": Client(_model, BackendError, BackendError, "malformed model reply"),
}


def test_an_rpc_call_posts_its_body_and_parses_the_reply(loopback, monkeypatch):
    loopback.reply(200, {"jsonrpc": "2.0", "id": 1, "result": "0x2a"})
    assert _rpc(loopback.url, monkeypatch)["value_hex"] == "0x2a"
    [seen] = loopback.seen
    assert (seen.method, seen.path) == ("POST", "/")
    assert seen.headers["Content-Type"] == "application/json"
    assert json.loads(seen.body) == {
        "jsonrpc": "2.0", "id": 1, "method": "eth_getStorageAt", "params": [ADDR, "0x2", "0x5"],
    }
    assert loopback.sleeps == []


def test_an_explorer_call_sends_its_query_and_parses_the_reply(loopback, monkeypatch):
    row = {"hash": TX, "blockNumber": "5", "from": ADDR, "to": ADDR, "input": "0x",
           "value": "0", "gasUsed": "1", "gasPrice": "1", "isError": "0"}
    loopback.reply(200, {"status": "1", "message": "OK", "result": [row]})
    doc = _explorer(loopback.url, monkeypatch)
    assert [record["txhash"] for record in doc["records"]] == [TX]
    [seen] = loopback.seen
    url = urllib.parse.urlsplit(seen.path)
    assert (seen.method, url.path) == ("GET", "/api")
    assert dict(urllib.parse.parse_qsl(url.query)) == {
        "chainid": "1", "apikey": "key", "module": "account", "action": "txlist",
        "address": ADDR, "startblock": "1", "endblock": "9", "sort": "asc",
    }


def test_a_model_call_sends_its_key_and_parses_the_reply(loopback, monkeypatch):
    reply = {"choices": [{"message": {"content": "fine"}}],
             "usage": {"prompt_tokens": 9, "completion_tokens": 2}}
    loopback.reply(200, reply)
    result = _model(loopback.url, monkeypatch)
    assert (result.text, result.usage.input_tokens, result.usage.output_tokens) == ("fine", 9, 2)
    [seen] = loopback.seen
    assert seen.method == "POST"
    assert seen.headers["Authorization"] == "Bearer sk-test"
    assert json.loads(seen.body)["messages"] == [
        {"role": "system", "content": "system says"}, {"role": "user", "content": "go"},
    ]


@pytest.mark.parametrize("name", sorted(CLIENTS))
def test_a_404_is_final(loopback, monkeypatch, name):
    client = CLIENTS[name]
    loopback.reply(404, {"error": "no such route"})
    with pytest.raises(client.final, match="HTTP 404"):
        client.call(loopback.url, monkeypatch)
    assert len(loopback.seen) == 1
    assert loopback.sleeps == []


@pytest.mark.parametrize("status", [429, 503])
@pytest.mark.parametrize("name", sorted(CLIENTS))
def test_a_transient_status_is_retried(loopback, monkeypatch, name, status):
    client = CLIENTS[name]
    loopback.reply(status, {"error": "later"})
    with pytest.raises(client.exhausted, match=f"after 3 attempts: HTTP Error {status}"):
        client.call(loopback.url, monkeypatch)
    assert len(loopback.seen) == transport.RETRIES
    assert loopback.sleeps == ALL_BACKOFFS


@pytest.mark.parametrize("name", sorted(CLIENTS))
def test_a_body_that_is_not_json_is_final(loopback, monkeypatch, name):
    client = CLIENTS[name]
    loopback.reply(200, raw=b"<html>busy</html>")
    with pytest.raises(client.final, match=client.malformed):
        client.call(loopback.url, monkeypatch)
    assert len(loopback.seen) == 1
    assert loopback.sleeps == []


@pytest.mark.parametrize("name", sorted(CLIENTS))
def test_a_closed_port_is_retried(loopback, monkeypatch, name):
    client = CLIENTS[name]
    with pytest.raises(client.exhausted, match="after 3 attempts") as info:
        client.call(_closed_port_url(), monkeypatch)
    assert not isinstance(info.value, ErrorReply)
    assert loopback.seen == []
    assert loopback.sleeps == ALL_BACKOFFS
