import json
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

import rxmflow
from rxmflow.backends import HttpBackend, OpenAIChatBackend, ScriptedBackend
from rxmflow.errors import BackendError


class _GenerateHandler(BaseHTTPRequestHandler):
    """Minimal generate endpoint that records request bodies."""

    bodies = []
    status = 200

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        type(self).bodies.append((self.path, body, dict(self.headers)))
        if type(self).status != 200:
            self.send_response(type(self).status)
            self.end_headers()
            return
        if self.path == "/api/generate":
            payload = {"model": body["model"], "response": "pong: " + body["prompt"]}
        else:
            payload = {"choices": [{"message": {"content": "chat pong"}}]}
        data = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def server():
    _GenerateHandler.bodies = []
    _GenerateHandler.status = 200
    httpd = HTTPServer(("127.0.0.1", 0), _GenerateHandler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{httpd.server_port}"
    httpd.shutdown()


def test_http_backend_wire_contract(server):
    backend = HttpBackend(server, "qwen3:4b")
    reply = backend.generate("hello")
    assert reply == "pong: hello"
    path, body, _ = _GenerateHandler.bodies[0]
    assert path == "/api/generate"
    assert body == {"model": "qwen3:4b", "prompt": "hello", "stream": False}


def test_http_backend_http_error(server):
    _GenerateHandler.status = 500
    backend = HttpBackend(server, "qwen3:4b")
    with pytest.raises(BackendError) as excinfo:
        backend.generate("hello")
    assert excinfo.value.kind == "http_error"


def test_http_backend_unreachable_is_unavailable():
    backend = HttpBackend("http://127.0.0.1:9", "m", timeout=0.5)
    with pytest.raises(BackendError) as excinfo:
        backend.generate("x")
    assert excinfo.value.kind == "unavailable"


def test_openai_adapter_sends_bearer_key(server, monkeypatch):
    monkeypatch.setenv("RXMFLOW_API_KEY", "secret-key")
    backend = OpenAIChatBackend(server, "some-model")
    assert backend.generate("hi") == "chat pong"
    path, body, headers = _GenerateHandler.bodies[0]
    assert path == "/v1/chat/completions"
    assert body["messages"] == [{"role": "user", "content": "hi"}]
    assert headers.get("Authorization") == "Bearer secret-key"


def test_scripted_backend_plays_in_order_then_exhausts(tmp_path):
    path = tmp_path / "script.json"
    path.write_text(json.dumps(["one", "two"]))
    backend = ScriptedBackend.from_file(path)
    assert backend.generate("a") == "one"
    assert backend.generate("b") == "two"
    with pytest.raises(BackendError) as excinfo:
        backend.generate("c")
    assert excinfo.value.kind == "unavailable"
    assert backend.calls == 3


def test_scripted_backend_rejects_non_string_entries(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([1, 2]))
    with pytest.raises(ValueError):
        ScriptedBackend.from_file(path)


def test_import_leaves_requests_unloaded():
    # the HTTP client is imported by the backends that use it, so a run
    # without one does not pay for it at start-up
    code = "import sys, rxmflow; print('requests' in sys.modules)"
    src = str(Path(rxmflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
