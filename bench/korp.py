"""A Korp-style concordance endpoint on loopback, for the fetch workload.

One server thread in the benchmark process answers ``GET /korp?...&start=N``
with the pre-encoded page that begins at hit N, so serving costs little
next to the client's work.
"""

from __future__ import annotations

import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, HTTPServer


class KorpServer:
    """Serves ``pages`` (page start -> JSON body) until closed."""

    def __init__(self, pages: dict[int, bytes]) -> None:
        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server naming
                query = urllib.parse.parse_qs(urllib.parse.urlsplit(self.path).query)
                try:
                    body = pages[int(query["start"][0])]
                    status = 200
                except (KeyError, ValueError, IndexError):
                    body, status = b'{"ERROR": "no such page"}', 404
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format: str, *args) -> None:
                pass

        self._httpd = HTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
        self._thread.start()

    @property
    def endpoint(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}/korp"

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join()
