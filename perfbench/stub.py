"""Local indicator API serving a long-schema panel in the paged JSON dialect.

GET /<provider>/indicator/<code>?date=YYYY:YYYY&page=N answers with the
two-element array [metadata, records] that the package's fetch client
reads.  The page size is fixed by the server (PER_PAGE records), whatever
per_page the client asks for, so the page count is a property of the
workload.  One server thread handles requests one at a time and counts
requests, pages served and body bytes.
"""

from __future__ import annotations

import csv
import json
import math
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from urllib.parse import parse_qs, urlparse


def records_from_wide_csv(path: str) -> dict:
    """code -> list of (entity, year, value or None), entity-major like the file."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    out = {name: [] for name in header[2:]}
    for row in body:
        entity, year = row[0], int(row[1])
        for name, token in zip(header[2:], row[2:]):
            value = float(token) if token else None
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{path}: non-finite value for {entity} {year} {name}")
            out[name].append((entity, year, value))
    return out


class _Handler(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def _reply(self, status: int, payload):
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        return len(body)

    def do_GET(self):
        stub = self.server.stub
        url = urlparse(self.path)
        parts = url.path.strip("/").split("/")
        query = parse_qs(url.query)
        records = None
        if len(parts) == 3 and parts[0] == stub.provider and parts[1] == "indicator":
            records = stub.records.get(parts[2])
        if records is None:
            sent = self._reply(404, {"message": f"unknown path {url.path}"})
            stub.count(sent, page=False)
            return
        y0, y1 = (int(y) for y in query["date"][0].split(":"))
        rows = [r for r in records if y0 <= r[1] <= y1]
        pages = max(1, -(-len(rows) // stub.per_page))
        page = int(query.get("page", ["1"])[0])
        chunk = rows[(page - 1) * stub.per_page : page * stub.per_page]
        meta = {"page": page, "pages": pages, "per_page": stub.per_page, "total": len(rows)}
        data = [
            {"countryiso3code": e, "date": str(y), "value": v} for e, y, v in chunk
        ]
        sent = self._reply(200, [meta, data])
        stub.count(sent, page=True)


class IndicatorStub:
    """One-thread HTTP server; use as a context manager."""

    def __init__(self, records: dict, provider: str, per_page: int):
        self.records = records
        self.provider = provider
        self.per_page = per_page
        self.requests = self.pages = self.bytes = 0
        self._lock = threading.Lock()
        self._server = HTTPServer(("127.0.0.1", 0), _Handler)
        self._server.stub = self
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self._server.server_address[1]}"

    def count(self, sent: int, page: bool):
        with self._lock:
            self.requests += 1
            self.pages += int(page)
            self.bytes += sent

    def counters(self) -> tuple:
        with self._lock:
            return self.requests, self.pages, self.bytes

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._server.shutdown()
        self._thread.join()
        self._server.server_close()
