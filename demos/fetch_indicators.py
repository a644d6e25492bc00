"""
Paged indicator download with a filesystem cache
================================================

Stands up a tiny local HTTP server speaking the paged two-element JSON
dialect of public indicator APIs, fetches two indicator codes through the
client, and shows the cache short-circuiting the second pass.  Everything
runs offline; point base_url at a real provider to fetch live data.
"""

import json
import tempfile
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse

from panelmetrics.report.fetch import FetchDescriptor, fetch_indicators

ENTITIES = ("AAA", "BBB", "CCC")


class Handler(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def do_GET(self):
        parts = urlparse(self.path)
        query = parse_qs(parts.query)
        code = parts.path.rstrip("/").split("/")[-1]
        y0, y1 = (int(y) for y in query["date"][0].split(":"))
        records = [
            {"countryiso3code": e, "date": str(year), "value": len(e) * year % 97}
            for e in ENTITIES
            for year in range(y0, y1 + 1)
        ]
        payload = [{"page": 1, "pages": 1, "total": len(records)}, records]
        body = json.dumps(payload).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True).start()
base_url = f"http://127.0.0.1:{server.server_address[1]}"
cache_dir = tempfile.mkdtemp(prefix="indicator_cache_")

descriptors = [
    FetchDescriptor(provider="demo", code="NY.GDP.PCAP.CD", years="2015:2018"),
    FetchDescriptor(provider="demo", code="SP.POP.TOTL", years="2015:2018"),
]

# 1. first pass hits the server and writes one long CSV per code
for outcome in fetch_indicators(descriptors, base_url, cache_dir):
    print(f"{outcome.descriptor.code}: ok={outcome.ok} pages={outcome.pages} "
          f"rows={outcome.rows} from_cache={outcome.from_cache}")
    print(f"  -> {outcome.path}")

# 2. second pass is served from the cache, no requests issued
print()
for outcome in fetch_indicators(descriptors, base_url, cache_dir):
    print(f"{outcome.descriptor.code}: from_cache={outcome.from_cache}")

# 3. the cache holds plain long-schema CSV, ready for ingestion
first = sorted(Path(cache_dir).glob("*.csv"))[0]
print()
print(f"head of {first.name}:")
for line in first.read_text().splitlines()[:4]:
    print(f"  {line}")

server.shutdown()
