"""Core value types shared across the postmortem pipeline.

Chain identifiers, transaction hashes, addresses and seed references.
Everything here is immutable and canonicalized at construction time so
downstream modules can compare values structurally.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable

# ``sha256`` is CPython's built-in SHA-256, for request keys and fresh role
# addresses.  ``hashlib`` maps OpenSSL's libcrypto, about 3.5 MB of resident
# memory, for a hash those need once each; CPython's ``random`` makes the
# same choice for its SHA-512: the lean module first, ``hashlib`` only on an
# interpreter built without it.  Digests are the same either way.  Live runs
# load OpenSSL through ``urllib.request`` for TLS anyway; offline ones (replays,
# ``evaluate``, ``metrics``, ``dataset export``) never do.
try:
    from _sha2 import sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256


class DomainError(Exception):
    """Base class for value-level validation errors."""


class InvalidTxHash(DomainError):
    pass


class InvalidAddress(DomainError):
    pass


class UnsupportedChain(DomainError):
    pass


#: EVM networks the pipeline understands, keyed by chain id.
CHAIN_NAMES: dict[int, str] = {
    1: "Ethereum",
    10: "Optimism",
    56: "BNB Smart Chain",
    100: "Gnosis",
    130: "Unichain",
    137: "Polygon",
    143: "Monad",
    146: "Sonic",
    324: "zkSync Era",
    999: "HyperEVM",
    1329: "Sei",
    2741: "Abstract",
    5000: "Mantle",
    8453: "Base",
    42161: "Arbitrum One",
    42170: "Arbitrum Nova",
    42220: "Celo",
    43114: "Avalanche C-Chain",
    59144: "Linea",
    80094: "Berachain",
    81457: "Blast",
    534352: "Scroll",
}

SUPPORTED_CHAINS: frozenset[int] = frozenset(CHAIN_NAMES)

#: ASCII hex digits only: ``str.isdigit`` and ``\d`` also take other scripts' digits.
_HEX_BODY = re.compile(r"[0-9a-fA-F]*")


def validate_chain(chainid: int) -> int:
    """Return ``chainid`` unchanged if supported, else raise UnsupportedChain."""
    if not isinstance(chainid, int) or isinstance(chainid, bool):
        raise UnsupportedChain(f"chain id must be an integer, got {chainid!r}")
    if chainid not in SUPPORTED_CHAINS:
        raise UnsupportedChain(f"unsupported chain id {chainid}")
    return chainid


def _canonical_hex(value: str, nibbles: int, err: type[DomainError], what: str) -> str:
    if not isinstance(value, str):
        raise err(f"{what} must be a string, got {type(value).__name__}")
    body = value[2:] if value[:2] in ("0x", "0X") else None
    if body is None:
        raise err(f"{what} must be 0x-prefixed: {value!r}")
    if len(body) != nibbles:
        raise err(f"{what} must be 0x plus {nibbles} hex chars, got {len(body)}: {value!r}")
    if not _HEX_BODY.fullmatch(body):
        raise err(f"{what} contains non-hex characters: {value!r}")
    return "0x" + body.lower()


@dataclass(frozen=True, order=True)
class TxHash:
    """32-byte transaction hash, canonical lowercase 0x-prefixed form."""

    value: str

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "value", _canonical_hex(self.value, 64, InvalidTxHash, "transaction hash")
        )

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, order=True)
class Address:
    """20-byte account address, canonical lowercase 0x-prefixed form."""

    value: str

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "value", _canonical_hex(self.value, 40, InvalidAddress, "address")
        )

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class SeedRef:
    """One or more seed transactions on a single chain, order-preserving."""

    chainid: int
    txs: tuple[TxHash, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        validate_chain(self.chainid)
        txs = tuple(t if isinstance(t, TxHash) else TxHash(str(t)) for t in self.txs)
        if not txs:
            raise DomainError("seed requires at least one transaction hash")
        if len(set(txs)) != len(txs):
            raise DomainError("seed transaction hashes must be unique")
        object.__setattr__(self, "txs", txs)

    @property
    def primary(self) -> TxHash:
        return self.txs[0]

    @property
    def incident_key(self) -> tuple[int, tuple[str, ...]]:
        """The incident the seed names, whatever the order of its hashes."""
        return (self.chainid, tuple(sorted(t.value for t in self.txs)))

    @classmethod
    def from_strings(cls, chainid: int, hashes: Iterable[str]) -> "SeedRef":
        return cls(chainid, tuple(TxHash(h) for h in hashes))
