"""In-process OpenAI-compatible stub endpoint for hermetic tests.

Serves scripted replies to POST /chat/completions and counts every request,
so tests can assert both reply handling and that offline paths make zero
network calls.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

__all__ = ["StubServer"]


class StubServer:
    """Scripted chat-completions endpoint.

    Replies are served in order (the last one repeats); the first
    ``fail_times`` requests get the HTTP status ``fail_status``. Token usage
    figures are deterministic word counts.
    """

    def __init__(self, replies: list[str], fail_times: int = 0, fail_status: int = 500):
        if not replies:
            raise ValueError("stub server needs at least one reply")
        self.replies = list(replies)
        self.fail_times = fail_times
        self.fail_status = fail_status
        self.request_count = 0
        self._lock = threading.Lock()
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    @classmethod
    def from_dir(cls, path: str | Path, **kwargs) -> "StubServer":
        files = sorted(Path(path).glob("*.txt"))
        return cls([f.read_text(encoding="utf-8") for f in files], **kwargs)

    @property
    def base_url(self) -> str:
        if self._server is None:
            raise RuntimeError("stub server is not running")
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def _next_reply(self) -> tuple[int, str]:
        with self._lock:
            index = self.request_count
            self.request_count += 1
        if index < self.fail_times:
            return self.fail_status, ""
        return 200, self.replies[min(index - self.fail_times, len(self.replies) - 1)]

    def start(self) -> "StubServer":
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self) -> None:  # noqa: N802 - http.server API
                length = int(self.headers.get("Content-Length", "0"))
                body = json.loads(self.rfile.read(length) or b"{}")
                status, reply = stub._next_reply()
                if status != 200:
                    self.send_response(status)
                    self.end_headers()
                    self.wfile.write(b"stubbed failure")
                    return
                prompt_text = " ".join(m.get("content", "") for m in body.get("messages", []))
                payload = json.dumps({
                    "choices": [{"message": {"role": "assistant", "content": reply}}],
                    "usage": {
                        "prompt_tokens": len(prompt_text.split()),
                        "completion_tokens": len(reply.split()),
                    },
                }).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args) -> None:
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "StubServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
