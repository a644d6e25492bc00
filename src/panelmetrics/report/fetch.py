"""Indicator API client: paginated JSON download with an on-disk cache.

The wire format follows the common public-indicator convention: GET
{base_url}/{provider}/indicator/{code}?date=YYYY:YYYY&format=json&page=N&
per_page=PER_PAGE returns a two-element array [metadata, records], where metadata
carries page/pages counts and each record holds an entity id, a date, and
a value (null for missing).  Each descriptor lands in one long-schema CSV
in the cache, keyed by a digest of (base_url, provider, code, years), so
two hosts never share a file; repeat calls never touch the network.  A
download is cached only when it parses as a long-schema panel holding
exactly the descriptor's code, and a cache file is reused only under the
same condition; any other file is downloaded again.  Either way the parsed
panel rides on the outcome, so callers never read the file again.  A
provider reporting more than MAX_PAGES pages is refused, not followed, a
page whose body is over MAX_PAGE_BYTES is refused, and a page is tried at
most MAX_ATTEMPTS times; these are constants, not options.

Pages are fetched by _Client on the standard library's urllib.request,
imported on the fetch path only; the client owns the retries and answers
each page as (status, raw body bytes).  HTTPS is checked against Python's
default trust store, the *_proxy environment variables are honoured, and
each page opens its own connection.  Every failed download leaves
_fetch_one through one place that builds the failed FetchOutcome.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import time
from dataclasses import dataclass, field

from ..data import PanelDataset, read_panel_csv

MAX_PAGES = 1000  # bounds the requests one descriptor can make
MAX_PAGE_BYTES = 16 * 1024 * 1024  # bounds the body read for one page
PER_PAGE = 1000  # records asked for per page
MAX_ATTEMPTS = 3  # tries per page before a descriptor's download is given up
BACKOFF_S = 0.5  # wait before the first retry; doubled before each later one


@dataclass(frozen=True)
class FetchDescriptor:
    """One indicator request: provider, code, inclusive year range."""

    provider: str
    code: str
    years: str  # "YYYY:YYYY"

    def cache_key(self, base_url: str) -> str:
        """Digest naming this request's cache file; a trailing "/" on
        base_url does not change it."""
        raw = f"{base_url.rstrip('/')}|{self.provider}|{self.code}|{self.years}".encode("utf-8")
        return hashlib.sha1(raw).hexdigest()


@dataclass(frozen=True)
class FetchOutcome:
    """Result of one descriptor: a cached CSV path and its parsed panel, or an
    error record."""

    descriptor: FetchDescriptor
    path: str | None = None
    from_cache: bool = False
    pages: int = 0
    rows: int = 0
    error: str | None = None
    status: int | None = None
    raw_body: str | None = None
    dataset: PanelDataset | None = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.error is None


def _record_entity(record: dict) -> str:
    """Entity id from a record, accepting the common field spellings."""
    if "entity" in record:
        return str(record["entity"])
    if record.get("countryiso3code"):
        return str(record["countryiso3code"])
    country = record.get("country")
    if isinstance(country, dict) and "id" in country:
        return str(country["id"])
    raise ValueError("record has no entity identifier")


def _parse_payload(payload):
    """(metadata, records) from a decoded page, or ValueError."""
    if (
        not isinstance(payload, list)
        or len(payload) != 2
        or not isinstance(payload[0], dict)
        or not isinstance(payload[1], list)
    ):
        raise ValueError("payload is not a [metadata, records] pair")
    return payload[0], payload[1]


class _Client:
    """GET-only HTTP client on urllib.request: the session.get seam, retries
    included.

    get(url, params, timeout) answers one page as (status, body), body the raw
    bytes.  A connection failure, a body cut short of its Content-Length or a
    5xx answer is tried MAX_ATTEMPTS times in all, with waits of BACKOFF_S and
    then double, before ConnectionError; a 4xx answer is returned at once.  A
    URL that is not http(s), or a body over MAX_PAGE_BYTES, raises ValueError
    at once.
    """

    def get(self, url, params, timeout):
        from http.client import HTTPException, IncompleteRead
        from urllib.error import HTTPError
        from urllib.parse import urlencode, urlsplit
        from urllib.request import urlopen

        if urlsplit(url).scheme not in ("http", "https"):
            raise ValueError(f"not an http or https URL: {url!r}")
        for attempt in range(MAX_ATTEMPTS):
            if attempt:
                time.sleep(BACKOFF_S * 2 ** (attempt - 1))
            try:
                try:
                    reply = urlopen(f"{url}?{urlencode(params)}", timeout=timeout)
                except HTTPError as error:
                    reply = error  # a 4xx or 5xx answer is read like any other
                with reply:
                    body = reply.read(MAX_PAGE_BYTES + 1)
                    missing = getattr(reply, "length", None)  # Content-Length bytes not received
                if len(body) > MAX_PAGE_BYTES:
                    raise ValueError(f"body over the limit of {MAX_PAGE_BYTES} bytes")
                if missing:
                    raise IncompleteRead(body, missing)
            except (OSError, HTTPException) as exc:
                last = exc
                continue
            if reply.status < 500:
                return reply.status, body
            last = f"HTTP {reply.status}"
        raise ConnectionError(f"gave up after {MAX_ATTEMPTS} attempts: {last}")


def _read_holding(path: str, code: str) -> PanelDataset:
    """The long-schema panel CSV at path; ValueError unless its one variable is code."""
    dataset = read_panel_csv(path, "long")
    if list(dataset.variables) != [code]:
        raise ValueError(f"{path}: holds {sorted(dataset.variables)}, not [{code!r}]")
    return dataset


def _fetch_one(descriptor, base_url, cache_dir, session):
    code = descriptor.code
    path = os.path.join(cache_dir, f"{descriptor.cache_key(base_url)}.csv")
    try:
        return FetchOutcome(descriptor, path=path, from_cache=True,
                            dataset=_read_holding(path, code))
    except (OSError, ValueError):
        pass  # absent or invalid: download again

    url = f"{base_url.rstrip('/')}/{descriptor.provider}/indicator/{code}"
    rows, page, pages = [], 1, 1
    try:
        while page <= pages:
            status = body = None  # this page's answer, kept on a failed outcome
            params = {"date": descriptor.years, "format": "json", "page": page,
                      "per_page": PER_PAGE}
            try:
                status, body = session.get(url, params=params, timeout=30)
            except ValueError as exc:
                raise ValueError(f"page {page} of {code!r}: {exc}")
            if status >= 400:
                raise ValueError(f"provider error for {code!r}: HTTP {status}")
            try:
                meta, records = _parse_payload(json.loads(body))
                pages = int(meta.get("pages", 1))
                for record in records:
                    entity = _record_entity(record)
                    year = int(record["date"])
                    value = record.get("value")
                    rows.append((entity, year, "" if value is None else repr(float(value))))
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"malformed payload on page {page}: {exc}")
            if pages > MAX_PAGES:
                raise ValueError(f"provider reports {pages} pages for {code!r}, "
                                 f"above the limit of {MAX_PAGES}")
            page += 1

        status = body = None  # a failure from here on is not one page's answer
        rows.sort(key=lambda r: (r[0], r[1]))
        os.makedirs(cache_dir, exist_ok=True)
        tmp = path + ".part"
        try:
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["entity", "year", "variable", "value"])
                for entity, year, value in rows:
                    writer.writerow([entity, year, code, value])
            dataset = _read_holding(tmp, code)
        except ValueError as exc:
            os.remove(tmp)
            raise ValueError(f"invalid payload for {code!r}: {exc}")
    except (ConnectionError, ValueError) as exc:
        return FetchOutcome(descriptor, error=str(exc), status=status,
                            raw_body=None if body is None else body.decode("utf-8", "replace"))
    os.replace(tmp, path)
    return FetchOutcome(descriptor, path=path, pages=pages, rows=len(rows), dataset=dataset)


def fetch_indicators(descriptors, base_url: str, cache_dir: str, session=None) -> list:
    """Download (or reuse) one long-schema CSV per descriptor.

    Never raises for per-descriptor problems; each descriptor gets a
    FetchOutcome whose error field carries retries-exhausted, refused-page,
    provider, page-count, malformed- or invalid-payload diagnostics, with the
    status and raw body of the page that failed when a page was answered.
    Cached descriptors are returned without network traffic.

    session stands in for the whole network layer, retries included: its
    get(url, params, timeout) returns (status, body bytes) as _Client.get
    does.  Only tests pass one; a requests.Session does not fit this seam.
    """
    session = session or _Client()
    return [_fetch_one(d, base_url, cache_dir, session) for d in descriptors]
