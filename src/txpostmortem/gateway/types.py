"""Typed payloads exchanged with chain data providers.

Adapters return raw JSON documents, which the record/replay layer and the
workspace persist as they are; ``from_doc`` turns one into a dataclass, so
analysis code never touches loose dicts.  A collection summary has no type:
each batch builds the ``{"fetched": [...], "failed": [...]}`` it writes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from ..domain import Address, TxHash, sha256

#: Encodes a request's identity for its key; made once, where ``json.dumps``
#: with these options would build an encoder per call.
_KEY_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

#: What a request is, as ``DataRequest.identity`` gives it: kind, chain id,
#: normalized target, block window and canonical ``extra``.
Identity = tuple[str, Any, str, Any, Any, str]


def normalize_target(target: str) -> str:
    """``target`` stripped, with a ``0x`` hex string lowercased."""
    target = target.strip()
    if target[:2] in ("0x", "0X"):
        return "0x" + target[2:].lower()
    return target


def _exact(value: Any) -> Any:
    """``value`` if it is an int or None, else its JSON text: ``==`` takes
    ``1``, ``1.0`` and ``True`` as one value, which the key writes apart."""
    return value if value is None or type(value) is int else _KEY_ENCODER.encode(value)


def metadata_identities(chainid: int, txhashes: Iterable[str]) -> dict[Identity, str]:
    """Each hash by the identity of its ``tx_metadata`` request on chain
    ``chainid``, as ``DataRequest.identity`` gives it, with no request made;
    an identity's third field is the hash normalized."""
    chain = _exact(chainid)
    return {
        ("tx_metadata", chain, normalize_target(txhash), None, None, "{}"): txhash
        for txhash in txhashes
    }


@dataclass(frozen=True)
class DataRequest:
    """One evidence fetch: what to get, where, and over which block window."""

    kind: str
    chainid: int
    target: str
    block_lo: Optional[int] = None
    block_hi: Optional[int] = None
    reason: str = ""
    extra: dict[str, Any] = field(default_factory=dict)
    _key: Optional[str] = field(default=None, init=False, repr=False, compare=False)

    @property
    def identity(self) -> Identity:
        """What this request asks for, as a tuple: kind, chain id, normalized
        target, block window and ``extra`` as canonical JSON, but not
        ``reason``.  These are the fields ``key`` hashes, and two requests
        have equal identities exactly when they have equal keys, so memos
        key by it and hash nothing.  A request whose ``extra`` is not JSON
        fails here, at fetch time, every time."""
        return (
            self.kind,
            _exact(self.chainid),
            self.normalized_target(),
            _exact(self.block_lo),
            _exact(self.block_hi),
            _KEY_ENCODER.encode(self.extra),
        )

    @property
    def key(self) -> str:
        """Stable content key, independent of ``reason``: the name of the
        request's fixture file.

        Hashed over the semantic fields (kind, chain, normalized target,
        block window, extras) by the first caller and kept on the request,
        so ``extra`` must not change once the key has been read.  A request
        whose ``extra`` is not JSON fails here, at fetch time, every time.
        The hash is ``domain.sha256``, CPython's built-in one, which loads
        no OpenSSL.
        """
        if self._key is None:
            identity = {
                "kind": self.kind,
                "chainid": self.chainid,
                "target": self.normalized_target(),
                "block_lo": self.block_lo,
                "block_hi": self.block_hi,
                "extra": self.extra,
            }
            blob = _KEY_ENCODER.encode(identity)
            digest = sha256(blob.encode("utf-8")).hexdigest()[:16]
            object.__setattr__(self, "_key", f"{self.kind}_{self.chainid}_{digest}")
        return self._key

    def normalized_target(self) -> str:
        return normalize_target(self.target)

    def to_doc(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "kind": self.kind,
            "chainid": self.chainid,
            "target": self.target,
        }
        if self.block_lo is not None:
            doc["block_lo"] = self.block_lo
        if self.block_hi is not None:
            doc["block_hi"] = self.block_hi
        if self.reason:
            doc["reason"] = self.reason
        if self.extra:
            doc["extra"] = self.extra
        return doc

    @classmethod
    def from_doc(cls, doc: dict[str, Any]) -> "DataRequest":
        return cls(
            kind=doc["kind"],
            chainid=doc["chainid"],
            target=doc["target"],
            block_lo=doc.get("block_lo"),
            block_hi=doc.get("block_hi"),
            reason=doc.get("reason", ""),
            extra=dict(doc.get("extra", {})),
        )


@dataclass(frozen=True)
class TxRecord:
    """Condensed external-transaction row, as returned by explorer txlists."""

    txhash: TxHash
    block_number: int
    from_address: Address
    to_address: Optional[Address]
    selector: Optional[str]
    value: int
    index: int = 0

    def order_key(self) -> tuple[int, int]:
        return (self.block_number, self.index)

    @classmethod
    def from_doc(cls, doc: dict[str, Any]) -> "TxRecord":
        return cls(
            txhash=TxHash(doc["txhash"]),
            block_number=doc["block_number"],
            from_address=Address(doc["from"]),
            to_address=Address(doc["to"]) if doc.get("to") else None,
            selector=doc.get("selector"),
            value=doc.get("value", 0),
            index=doc.get("index", 0),
        )


@dataclass(frozen=True)
class TraceNode:
    """One frame of an opcode-level call trace."""

    call_type: str
    from_address: Address
    to_address: Optional[Address]
    selector: Optional[str] = None
    children: tuple["TraceNode", ...] = ()

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    @classmethod
    def from_doc(cls, doc: dict[str, Any]) -> "TraceNode":
        return cls(
            call_type=doc["call_type"],
            from_address=Address(doc["from"]),
            to_address=Address(doc["to"]) if doc.get("to") else None,
            selector=doc.get("selector"),
            children=tuple(cls.from_doc(c) for c in doc.get("children", [])),
        )


@dataclass(frozen=True)
class BalanceDelta:
    """Net balance change of one (address, asset) pair across a transaction."""

    address: Address
    asset: str
    delta: int

    @classmethod
    def from_doc(cls, doc: dict[str, Any]) -> "BalanceDelta":
        return cls(
            address=Address(doc["address"]),
            asset=doc["asset"],
            delta=doc["delta"],
        )
