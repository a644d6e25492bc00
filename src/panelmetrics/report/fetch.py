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

Pages are fetched with the standard library's urllib.request, imported on
the fetch path only.  HTTPS is checked against Python's default trust
store, the *_proxy environment variables are honoured, and each page opens
its own connection.
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


class _Reply:
    """Status and raw body of one page, with the status_code, text and json()
    that _fetch_one reads."""

    def __init__(self, status_code: int, content: bytes):
        self.status_code = status_code
        self.content = content

    @property
    def text(self) -> str:
        return self.content.decode("utf-8", errors="replace")

    def json(self):
        return json.loads(self.content)


class _Client:
    """GET-only HTTP client on urllib.request, behind the session.get seam.

    A 4xx or 5xx answer is a reply like any other; connection failures and a
    body cut short of its Content-Length raise OSError or
    http.client.HTTPException, and a URL that is not http(s), or a body over
    MAX_PAGE_BYTES, raises ValueError.
    """

    def get(self, url, params, timeout):
        from http.client import IncompleteRead
        from urllib.error import HTTPError
        from urllib.parse import urlencode, urlsplit
        from urllib.request import urlopen

        if urlsplit(url).scheme not in ("http", "https"):
            raise ValueError(f"not an http or https URL: {url!r}")
        try:
            reply = urlopen(f"{url}?{urlencode(params)}", timeout=timeout)
        except HTTPError as error:
            reply = error
        with reply:
            content = reply.read(MAX_PAGE_BYTES + 1)
            missing = getattr(reply, "length", None)  # Content-Length bytes not received
        if len(content) > MAX_PAGE_BYTES:
            raise ValueError(f"body over the limit of {MAX_PAGE_BYTES} bytes")
        if missing:
            raise IncompleteRead(content, missing)
        return _Reply(reply.status, content)


def _get_page(session, url, params):
    """One page with bounded-retry semantics.

    Connection failures and 5xx responses are retried, MAX_ATTEMPTS tries in
    all, with exponential backoff from BACKOFF_S; 4xx responses are provider
    errors and surface immediately, and a ValueError from the session is
    raised at once.
    Returns the response object.
    """
    from http.client import HTTPException  # imported on the fetch path only

    last_exc = None
    for attempt in range(MAX_ATTEMPTS):
        if attempt:
            time.sleep(BACKOFF_S * 2 ** (attempt - 1))
        try:
            response = session.get(url, params=params, timeout=30)
        except (OSError, HTTPException) as exc:
            last_exc = exc
            continue
        if response.status_code >= 500:
            last_exc = RuntimeError(f"HTTP {response.status_code}")
            continue
        return response
    raise ConnectionError(f"gave up after {MAX_ATTEMPTS} attempts: {last_exc}")


def _read_holding(path: str, code: str) -> PanelDataset:
    """The long-schema panel CSV at path; ValueError unless its one variable is code."""
    dataset = read_panel_csv(path, "long")
    if list(dataset.variables) != [code]:
        raise ValueError(f"{path}: holds {sorted(dataset.variables)}, not [{code!r}]")
    return dataset


def _fetch_one(descriptor, base_url, cache_dir, session):
    key = descriptor.cache_key(base_url)
    path = os.path.join(cache_dir, f"{key}.csv")
    try:
        return FetchOutcome(descriptor, path=path, from_cache=True,
                            dataset=_read_holding(path, descriptor.code))
    except (OSError, ValueError):
        pass  # absent or invalid: download again

    url = f"{base_url.rstrip('/')}/{descriptor.provider}/indicator/{descriptor.code}"
    rows, page, pages = [], 1, 1
    while page <= pages:
        params = {
            "date": descriptor.years,
            "format": "json",
            "page": page,
            "per_page": PER_PAGE,
        }
        try:
            response = _get_page(session, url, params)
        except ConnectionError as exc:
            return FetchOutcome(descriptor, error=str(exc))
        except ValueError as exc:
            return FetchOutcome(descriptor, error=f"page {page} of {descriptor.code!r}: {exc}")
        if response.status_code >= 400:
            return FetchOutcome(
                descriptor,
                error=f"provider error for {descriptor.code!r}: HTTP {response.status_code}",
                status=response.status_code,
                raw_body=response.text,
            )
        try:
            meta, records = _parse_payload(response.json())
            pages = int(meta.get("pages", 1))
            for record in records:
                entity = _record_entity(record)
                year = int(record["date"])
                value = record.get("value")
                rows.append((entity, year, "" if value is None else repr(float(value))))
        except (ValueError, KeyError, TypeError) as exc:
            return FetchOutcome(
                descriptor,
                error=f"malformed payload on page {page}: {exc}",
                status=response.status_code,
                raw_body=response.text,
            )
        if pages > MAX_PAGES:
            return FetchOutcome(
                descriptor,
                error=f"provider reports {pages} pages for {descriptor.code!r}, "
                f"above the limit of {MAX_PAGES}",
                status=response.status_code,
            )
        page += 1

    rows.sort(key=lambda r: (r[0], r[1]))
    os.makedirs(cache_dir, exist_ok=True)
    tmp = path + ".part"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["entity", "year", "variable", "value"])
        for entity, year, value in rows:
            writer.writerow([entity, year, descriptor.code, value])
    try:
        dataset = _read_holding(tmp, descriptor.code)
    except ValueError as exc:
        os.remove(tmp)
        return FetchOutcome(descriptor, error=f"invalid payload for {descriptor.code!r}: {exc}")
    os.replace(tmp, path)
    return FetchOutcome(descriptor, path=path, pages=pages, rows=len(rows), dataset=dataset)


def fetch_indicators(descriptors, base_url: str, cache_dir: str, session=None) -> list:
    """Download (or reuse) one long-schema CSV per descriptor.

    Never raises for per-descriptor problems; each descriptor gets a
    FetchOutcome whose error field carries retries-exhausted, provider,
    or malformed-payload diagnostics (raw body preserved for the last
    two).  Cached descriptors are returned without network traffic.
    """
    session = session or _Client()
    return [_fetch_one(d, base_url, cache_dir, session) for d in descriptors]
