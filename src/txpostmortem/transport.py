"""The package's one HTTP client and its one retry policy, which both live
paths share: the chain node and explorer (``gateway.live``) and the model
service (``agents.backend``).  ``urllib.request`` loads ``ssl``, which no
offline run needs, so it is imported only when a request is sent."""

from __future__ import annotations

import json
import logging
import time
from typing import Any, Callable, Mapping
from urllib.error import HTTPError
from urllib.parse import urlencode

logger = logging.getLogger(__name__)

#: Attempts per call, and the wait before the second, doubled before each later one.
RETRIES = 3
BACKOFF_S = 0.5


class TransientReply(Exception):
    """A reply that asks to be tried again later, as a rate limit does."""


def _send(url: str, timeout: float, data: bytes | None = None,
          headers: dict[str, str] | None = None) -> Any:
    import urllib.request

    request = urllib.request.Request(url, data, headers or {})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as reply:
            body = reply.read()
    except HTTPError as exc:
        exc.close()  # it holds the reply's body open
        raise
    return json.loads(body)


def post_json(url: str, body: Any, timeout: float,
              headers: Mapping[str, str] | None = None) -> Any:
    """The JSON body of the reply to ``body`` posted to ``url`` as JSON.  A
    status other than 2xx raises ``HTTPError``, a body that is not JSON
    ``ValueError``."""
    return _send(url, timeout, json.dumps(body).encode(),
                 {"Content-Type": "application/json", **(headers or {})})


def get_json(url: str, params: Mapping[str, Any], timeout: float) -> Any:
    """As ``post_json``, for a GET of ``url`` with ``params`` as its query."""
    return _send(f"{url}?{urlencode(params)}", timeout)


def with_retries(call: Callable[[], Any], what: str, final: Callable[[str], Exception],
                 exhausted: Callable[[str], Exception]) -> Any:
    """``call()``, tried up to ``RETRIES`` times, ``BACKOFF_S`` doubling between
    tries, while it raises an HTTP 408, 429 or 5xx, any other ``OSError`` (a
    refused or reset connection, a timeout) or ``TransientReply``.  Any other
    HTTP status raises ``final`` at once, and a last failed try ``exhausted``.
    Anything else passes through, such as a body that is not JSON."""
    last: Exception | None = None
    for attempt in range(RETRIES):
        if attempt:
            time.sleep(BACKOFF_S * 2 ** (attempt - 1))
        try:
            return call()
        except HTTPError as exc:
            if not (exc.code in (408, 429) or exc.code >= 500):
                raise final(f"{what}: HTTP {exc.code}: {exc.reason}") from exc
            last = exc
        except (OSError, TransientReply) as exc:
            last = exc
        logger.warning("%s failed (attempt %d/%d): %s", what, attempt + 1, RETRIES, last)
    raise exhausted(f"{what} failed after {RETRIES} attempts: {last}")
