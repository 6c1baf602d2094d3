"""Language-model backends behind one generate-text contract.

A backend exposes generate(prompt) -> str and raises BackendError with kind
"unavailable", "timeout", or "http_error" on failure. Transport problems
are never retried here; retry budget is reserved for parse failures in the
planner.

HttpBackend speaks the local-runtime wire format:
    POST <base_url>/api/generate  {"model": ..., "prompt": ..., "stream": false}
with the reply text in the "response" field. OpenAIChatBackend adapts the
same contract to a chat-completions endpoint, reading its API key from an
environment variable. ScriptedBackend is the deterministic test double: a
list of canned responses consumed in order, behaving as unavailable once
exhausted.
"""

from __future__ import annotations

import json
import os

from .errors import BackendError

DEFAULT_TIMEOUT_SECONDS = 60.0


def _post(url: str, body: dict, timeout: float, reply, headers=None) -> str:
    """POST a JSON body and return `reply` applied to the decoded answer.

    A timeout, a transport failure, a non-200 status and a body `reply`
    cannot read each become a BackendError.
    """
    import requests     # deferred: a run without an HTTP backend never pays for it

    try:
        response = requests.post(url, json=body, headers=headers, timeout=timeout)
    except requests.Timeout:
        raise BackendError("timeout", f"no reply within {timeout}s") from None
    except requests.RequestException as exc:
        raise BackendError("unavailable", str(exc)) from None
    if response.status_code != 200:
        raise BackendError("http_error", f"status {response.status_code}")
    try:
        return reply(response.json())
    except (ValueError, KeyError, IndexError) as exc:
        raise BackendError("http_error", f"malformed response body: {exc}") from None


class HttpBackend:
    def __init__(self, base_url: str, model_name: str,
                 timeout: float = DEFAULT_TIMEOUT_SECONDS):
        self.base_url = base_url.rstrip("/")
        self.model_name = model_name
        self.timeout = timeout

    def generate(self, prompt: str) -> str:
        body = {"model": self.model_name, "prompt": prompt, "stream": False}
        return _post(f"{self.base_url}/api/generate", body, self.timeout,
                     lambda answer: answer["response"])


class OpenAIChatBackend:
    """Chat-completions adapter for the same generate contract."""

    def __init__(self, base_url: str, model_name: str,
                 api_key_env: str = "RXMFLOW_API_KEY",
                 timeout: float = DEFAULT_TIMEOUT_SECONDS):
        self.base_url = base_url.rstrip("/")
        self.model_name = model_name
        self.api_key_env = api_key_env
        self.timeout = timeout

    def generate(self, prompt: str) -> str:
        headers = {}
        key = os.environ.get(self.api_key_env)
        if key:
            headers["Authorization"] = f"Bearer {key}"
        body = {
            "model": self.model_name,
            "messages": [{"role": "user", "content": prompt}],
            "stream": False,
        }
        return _post(f"{self.base_url}/v1/chat/completions", body, self.timeout,
                     lambda answer: answer["choices"][0]["message"]["content"],
                     headers)


class ScriptedBackend:
    """File- or list-driven test double; unavailable once exhausted."""

    def __init__(self, responses: list[str]):
        self._responses = list(responses)
        self._cursor = 0
        self.calls = 0

    @classmethod
    def from_file(cls, path) -> "ScriptedBackend":
        with open(path, "r", encoding="utf-8") as handle:
            responses = json.load(handle)
        if not isinstance(responses, list) or not all(
            isinstance(r, str) for r in responses
        ):
            raise ValueError("scripted backend file must be a JSON array of strings")
        return cls(responses)

    def generate(self, prompt: str) -> str:
        self.calls += 1
        if self._cursor >= len(self._responses):
            raise BackendError("unavailable", "scripted responses exhausted")
        text = self._responses[self._cursor]
        self._cursor += 1
        return text

