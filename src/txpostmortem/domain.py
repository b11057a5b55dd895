"""Core value types shared across the postmortem pipeline.

Chain identifiers, transaction hashes, addresses, token amounts, and
outcome labels.  Everything here is immutable and canonicalized at
construction time so downstream modules can compare values structurally.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Union


class DomainError(Exception):
    """Base class for value-level validation errors."""


class InvalidTxHash(DomainError):
    pass


class InvalidAddress(DomainError):
    pass


class UnsupportedChain(DomainError):
    pass


class MixedAssetError(DomainError):
    """Arithmetic attempted across different assets or decimal scales."""


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

#: Sentinel asset identifier for the chain's native coin.
NATIVE_ASSET = "native"

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


#: Asset identifier: a token contract address or the native-coin sentinel.
AssetId = Union[Address, str]


def _check_asset(asset: AssetId) -> AssetId:
    if isinstance(asset, Address):
        return asset
    if asset == NATIVE_ASSET:
        return asset
    # Late canonicalization lets callers pass plain hex strings for tokens.
    return Address(str(asset))


@dataclass(frozen=True)
class TokenAmount:
    """Arbitrary-precision token quantity in base units.

    ``raw`` is the integer amount in the asset's smallest unit; ``decimals``
    is the display scale (0..36).  Arithmetic is defined only between
    amounts of the same asset and scale.
    """

    raw: int
    decimals: int
    asset: AssetId

    def __post_init__(self) -> None:
        if not isinstance(self.raw, int) or isinstance(self.raw, bool):
            raise MixedAssetError(f"raw amount must be an integer, got {self.raw!r}")
        if not (0 <= self.decimals <= 36):
            raise MixedAssetError(f"decimals out of range 0..36: {self.decimals}")
        object.__setattr__(self, "asset", _check_asset(self.asset))

    def _compatible(self, other: "TokenAmount") -> None:
        if not isinstance(other, TokenAmount):
            raise MixedAssetError(f"expected TokenAmount, got {type(other).__name__}")
        if other.asset != self.asset or other.decimals != self.decimals:
            raise MixedAssetError(
                f"mixed-asset arithmetic: {self.asset}/{self.decimals}d vs "
                f"{other.asset}/{other.decimals}d"
            )

    def __add__(self, other: "TokenAmount") -> "TokenAmount":
        self._compatible(other)
        return TokenAmount(self.raw + other.raw, self.decimals, self.asset)

    def __sub__(self, other: "TokenAmount") -> "TokenAmount":
        self._compatible(other)
        return TokenAmount(self.raw - other.raw, self.decimals, self.asset)

    def __neg__(self) -> "TokenAmount":
        return TokenAmount(-self.raw, self.decimals, self.asset)

    def __lt__(self, other: "TokenAmount") -> bool:
        self._compatible(other)
        return self.raw < other.raw

    def __le__(self, other: "TokenAmount") -> bool:
        self._compatible(other)
        return self.raw <= other.raw

    def __gt__(self, other: "TokenAmount") -> bool:
        self._compatible(other)
        return self.raw > other.raw

    def __ge__(self, other: "TokenAmount") -> bool:
        self._compatible(other)
        return self.raw >= other.raw

    def to_decimal_string(self) -> str:
        """Render as a signed decimal string at the asset's display scale."""
        sign = "-" if self.raw < 0 else ""
        mag = abs(self.raw)
        if self.decimals == 0:
            return f"{sign}{mag}"
        digits = str(mag).rjust(self.decimals + 1, "0")
        whole, frac = digits[: -self.decimals], digits[-self.decimals :]
        frac = frac.rstrip("0")
        return f"{sign}{whole}.{frac}" if frac else f"{sign}{whole}"


class OutcomeLabel(str, Enum):
    """Manual audit outcome for one incident's root-cause report."""

    ALIGNED = "AL"
    MISALIGNED = "MA"
    MISSED = "MS"
    NON_ACT = "NA"


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

    @classmethod
    def from_strings(cls, chainid: int, hashes: Iterable[str]) -> "SeedRef":
        return cls(chainid, tuple(TxHash(h) for h in hashes))
