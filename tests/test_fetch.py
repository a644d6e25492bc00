"""Tests for the indicator API client against a local scripted server."""

import http.server
import json
import threading
from collections import Counter
from urllib.parse import parse_qs, urlparse

import pytest

from panelmetrics.report import fetch
from panelmetrics.report.fetch import MAX_ATTEMPTS, MAX_PAGES, FetchDescriptor, fetch_indicators

# GOOD pages: (entity, year, value); value None renders as an empty cell
PAGES = (
    [("AAA", 2013, 1.5), ("AAA", 2014, 2.5)],
    [("BBB", 2013, 3.5), ("BBB", 2014, None)],
    [("CCC", 2013, 5.5)],
)


def _records(page):
    return [
        {"countryiso3code": e, "date": str(y), "value": v} for e, y, v in page
    ]


# the one page served for ONE and SHORT, and the same page with a Latin-1 entity id for LATIN1
ONE_PAGE = json.dumps([{"page": 1, "pages": 1}, _records(PAGES[2])])
LATIN1_PAGE = ONE_PAGE.replace("CCC", "\u00c5LA").encode("latin-1")


class _Handler(http.server.BaseHTTPRequestHandler):
    def _reply(self, status, body, content_type="application/json"):
        data = body if isinstance(body, bytes) else body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):
        url = urlparse(self.path)
        code = url.path.rsplit("/", 1)[-1]
        self.server.hits[code] += 1
        query = parse_qs(url.query)

        if code == "GOOD":
            page = int(query.get("page", ["1"])[0])
            meta = {"page": page, "pages": len(PAGES), "per_page": query["per_page"][0]}
            self._reply(200, json.dumps([meta, _records(PAGES[page - 1])]))
        elif code == "MISSING":
            self._reply(404, '{"message": "no such indicator"}')
        elif code == "BAD":
            self._reply(200, '{"oops": "not a [metadata, records] pair"}')
        elif code == "FLAKY":
            if self.server.hits[code] == 1:
                self._reply(500, "transient failure", content_type="text/plain")
            else:
                self._reply(200, json.dumps([{"page": 1, "pages": 1}, _records(PAGES[2])]))
        elif code == "DOWN":
            self._reply(500, "permanent failure", content_type="text/plain")
        elif code == "ONE":
            self._reply(200, ONE_PAGE)
        elif code == "SHORT":
            # the first reply promises more bytes than it sends before the connection closes
            if self.server.hits[code] == 1:
                self.send_response(200)
                self.send_header("Content-Length", str(len(ONE_PAGE) + 10))
                self.end_headers()
                self.wfile.write(ONE_PAGE.encode("utf-8"))
            else:
                self._reply(200, ONE_PAGE)
        elif code == "LATIN1":
            self._reply(200, LATIN1_PAGE)
        else:
            self._reply(404, '{"message": "unknown path"}')

    def log_message(self, *args):
        pass


@pytest.fixture(autouse=True)
def short_backoff(monkeypatch):
    """Retries wait 10 ms instead of BACKOFF_S, so retry tests stay fast."""
    monkeypatch.setattr(fetch, "BACKOFF_S", 0.01)


@pytest.fixture()
def server():
    srv = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    srv.hits = Counter()
    thread = threading.Thread(target=srv.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        thread.join()


def _one_good_record(page):
    return {"page": 1, "pages": 1}, [("AAA", 2013, 1.5)]


class _FakeSession:
    """Answers page N with reply(N): (metadata, GOOD page), its records made by records(page)."""

    def __init__(self, reply=_one_good_record, records=_records):
        self.reply, self.records = reply, records
        self.calls = 0

    def get(self, url, params, timeout):
        self.calls += 1
        meta, page = self.reply(params["page"])
        body = [meta, self.records(page)]
        return type("Response", (), {"status_code": 200, "text": "", "json": lambda _: body})()


def base_url(srv):
    return f"http://127.0.0.1:{srv.server_address[1]}"


def fetch_one(srv, tmp_path, code):
    descriptor = FetchDescriptor(provider="prov", code=code, years="2013:2021")
    (outcome,) = fetch_indicators([descriptor], base_url(srv), str(tmp_path / "cache"))
    return outcome


class TestCacheKey:
    def test_stable_and_distinct(self):
        a = FetchDescriptor("prov", "GOOD", "2013:2021")
        host = "http://one.example"
        assert a.cache_key(host) == FetchDescriptor("prov", "GOOD", "2013:2021").cache_key(host)
        assert a.cache_key(host) != FetchDescriptor("prov", "GOOD", "2013:2020").cache_key(host)
        assert a.cache_key(host) != FetchDescriptor("other", "GOOD", "2013:2021").cache_key(host)
        assert a.cache_key(host) != a.cache_key("http://two.example")
        assert a.cache_key(host + "/") == a.cache_key(host)


class TestFetch:
    def test_paginated_download_merges_pages(self, server, tmp_path):
        outcome = fetch_one(server, tmp_path, "GOOD")
        assert outcome.ok
        assert outcome.pages == 3
        assert outcome.rows == sum(len(p) for p in PAGES)
        assert server.hits["GOOD"] == 3
        with open(outcome.path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "entity,year,variable,value"
        assert len(lines) == 1 + outcome.rows
        # null value arrives as an empty cell, sorted by entity then year
        assert lines[4] == "BBB,2014,GOOD,"

    def test_cache_hit_makes_no_requests(self, server, tmp_path):
        first = fetch_one(server, tmp_path, "GOOD")
        before = server.hits["GOOD"]
        second = fetch_one(server, tmp_path, "GOOD")
        assert second.from_cache
        assert server.hits["GOOD"] == before
        with open(first.path, "rb") as fh:
            bytes_first = fh.read()
        with open(second.path, "rb") as fh:
            assert fh.read() == bytes_first

    @pytest.mark.parametrize("cached", [
        "\x00garbage",
        "entity,year,variable,value\nAAA,2013,OTHER,1.0\n",
        "entity,year,variable,value\nAAA,2013,GOOD,1.0\nAAA,2013,OTHER,1.0\n",
        "entity,year,variable,value\n" + "A" * 200_000 + ",2013,GOOD,1.0\n",
    ], ids=["garbage", "other-code", "extra-code", "oversized-field"])
    def test_invalid_cache_file_is_downloaded_again(self, tmp_path, cached):
        descriptor = FetchDescriptor("prov", "GOOD", "2013:2021")
        path = tmp_path / "cache" / f"{descriptor.cache_key('http://fake')}.csv"
        path.parent.mkdir()
        path.write_text(cached)
        session = _FakeSession()
        (outcome,) = fetch_indicators([descriptor], "http://fake", str(tmp_path / "cache"),
                                      session=session)
        assert (outcome.ok, outcome.from_cache, outcome.rows) == (True, False, 1)
        assert session.calls == 1
        assert path.read_text() == "entity,year,variable,value\nAAA,2013,GOOD,1.5\n"
        assert fetch_indicators([descriptor], "http://fake", str(tmp_path / "cache"),
                                session=session)[0].from_cache
        assert session.calls == 1

    def test_unknown_code_surfaces_status_and_body(self, server, tmp_path):
        outcome = fetch_one(server, tmp_path, "MISSING")
        assert not outcome.ok
        assert "MISSING" in outcome.error
        assert "404" in outcome.error
        assert outcome.status == 404
        assert "no such indicator" in outcome.raw_body
        assert outcome.path is None

    def test_malformed_payload_preserves_raw_body(self, server, tmp_path):
        outcome = fetch_one(server, tmp_path, "BAD")
        assert not outcome.ok
        assert "malformed payload" in outcome.error
        assert outcome.raw_body == '{"oops": "not a [metadata, records] pair"}'

    def test_server_error_retried_then_succeeds(self, server, tmp_path):
        outcome = fetch_one(server, tmp_path, "FLAKY")
        assert outcome.ok
        assert server.hits["FLAKY"] == 2
        assert outcome.rows == 1

    def test_retries_bounded(self, server, tmp_path):
        outcome = fetch_one(server, tmp_path, "DOWN")
        assert not outcome.ok
        assert f"{MAX_ATTEMPTS} attempts" in outcome.error
        assert server.hits["DOWN"] == MAX_ATTEMPTS

    def test_mixed_batch_isolates_failures(self, server, tmp_path):
        descriptors = [
            FetchDescriptor("prov", "GOOD", "2013:2021"),
            FetchDescriptor("prov", "MISSING", "2013:2021"),
        ]
        good, missing = fetch_indicators(descriptors, base_url(server), str(tmp_path / "cache"))
        assert good.ok
        assert not missing.ok

    def test_unreachable_host_reports_error(self, tmp_path):
        # a closed port: connection errors exhaust the retry budget
        outcome, = fetch_indicators(
            [FetchDescriptor("prov", "GOOD", "2013:2021")],
            "http://127.0.0.1:9",
            str(tmp_path / "cache"),
        )
        assert not outcome.ok
        assert f"{MAX_ATTEMPTS} attempts" in outcome.error

    @pytest.mark.parametrize("base", ["not-a-url", "ftp://127.0.0.1:9"])
    def test_url_the_client_cannot_open_is_an_error_at_once(self, tmp_path, base):
        outcome, = fetch_indicators(
            [FetchDescriptor("prov", "GOOD", "2013:2021")], base, str(tmp_path / "cache")
        )
        assert not outcome.ok
        assert outcome.error == (
            f"page 1 of 'GOOD': not an http or https URL: '{base}/prov/indicator/GOOD'"
        )
        assert not (tmp_path / "cache").exists()

    def test_body_not_utf8_is_malformed_and_not_cached(self, server, tmp_path):
        outcome = fetch_one(server, tmp_path, "LATIN1")
        assert not outcome.ok
        assert outcome.error.startswith("malformed payload on page 1: 'utf-8' codec can't decode")
        assert outcome.status == 200
        assert outcome.raw_body == LATIN1_PAGE.decode("utf-8", errors="replace")
        assert "\ufffdLA" in outcome.raw_body
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("spare, error", [
        (0, None),
        (-1, "page 1 of 'ONE': body over the limit of {} bytes"),
    ], ids=["at-limit", "one-byte-over"])
    def test_page_body_over_limit_is_refused(self, server, tmp_path, monkeypatch, spare, error):
        limit = len(ONE_PAGE) + spare
        monkeypatch.setattr(fetch, "MAX_PAGE_BYTES", limit)
        outcome = fetch_one(server, tmp_path, "ONE")
        assert server.hits["ONE"] == 1
        assert outcome.error == (error and error.format(limit))
        # a refused page leaves no .part or cache file
        assert (tmp_path / "cache").exists() == (error is None)

    def test_body_cut_short_is_retried(self, server, tmp_path):
        outcome = fetch_one(server, tmp_path, "SHORT")
        assert (outcome.ok, outcome.rows) == (True, 1)
        assert server.hits["SHORT"] == 2

    @pytest.mark.parametrize("reported, requests", [
        (lambda page: 10**9, 1),
        (lambda page: page + 1, MAX_PAGES),
    ], ids=["huge", "one-more-each-page"])
    def test_page_count_above_limit_is_refused(self, tmp_path, reported, requests):
        session = _FakeSession(lambda page: (
            {"page": page, "pages": reported(page)}, [(f"E{page}", 2013, 1.0)]
        ))
        (outcome,) = fetch_indicators([FetchDescriptor("prov", "GOOD", "2013:2021")],
                                      "http://fake", str(tmp_path / "cache"), session=session)
        assert not outcome.ok
        assert f"reports {reported(requests)} pages" in outcome.error
        assert session.calls == requests
        assert not (tmp_path / "cache").exists()

    def test_duplicate_record_across_pages_is_not_cached(self, tmp_path):
        pages = [[("AAA", 2013, 1.0), ("AAA", 2014, 2.0)], [("AAA", 2013, 3.0)]]
        session = _FakeSession(lambda page: ({"page": page, "pages": 2}, pages[page - 1]))
        (outcome,) = fetch_indicators([FetchDescriptor("prov", "GOOD", "2013:2021")],
                                      "http://fake", str(tmp_path / "cache"), session=session)
        assert not outcome.ok
        assert "duplicate cell ('AAA', 2013, 'GOOD')" in outcome.error
        assert (outcome.path, outcome.dataset) == (None, None)
        assert list((tmp_path / "cache").iterdir()) == []

    def test_oversized_entity_id_is_an_error_and_not_cached(self, tmp_path):
        # reading back the written CSV meets a field over the csv module's size limit
        session = _FakeSession(lambda page: ({"page": 1, "pages": 1}, [("A" * 200_000, 2013, 1.5)]))
        (outcome,) = fetch_indicators([FetchDescriptor("prov", "GOOD", "2013:2021")],
                                      "http://fake", str(tmp_path / "cache"), session=session)
        assert not outcome.ok
        assert outcome.error.startswith("invalid payload for 'GOOD': unreadable record at ")
        assert outcome.error.endswith(":2: field larger than field limit (131072)")
        assert list((tmp_path / "cache").iterdir()) == []

    @pytest.mark.parametrize("entity, error", [
        ({"country": {"id": "AAA", "value": "Aland"}}, None),
        ({"country": {"value": "Aland"}}, "malformed payload on page 1: record has no entity identifier"),
        ({}, "malformed payload on page 1: record has no entity identifier"),
    ], ids=["country-id", "country-without-id", "no-entity-field"])
    def test_entity_read_from_nested_country_id(self, tmp_path, entity, error):
        session = _FakeSession(records=lambda page: [dict(entity, date="2013", value=1.5)])
        (outcome,) = fetch_indicators([FetchDescriptor("prov", "GOOD", "2013:2021")],
                                      "http://fake", str(tmp_path / "cache"), session=session)
        assert outcome.error == error
        if error is None:
            assert (outcome.dataset.entities, outcome.rows) == (("AAA",), 1)
