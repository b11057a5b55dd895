"""The monetary predicate of anyone-can-take (ACT) opportunities.

An incident is monetarily ACT when a permissionless adversary extracts
strictly positive value in a reference asset after fees.  All value
arithmetic is exact integer math in base units; nothing here rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .domain import Address, TokenAmount
from .gateway.types import TxRecord


class ValuationError(Exception):
    """A holding could not be priced in the reference asset."""


@dataclass(frozen=True)
class ProfitAssessment:
    """Outcome of the monetary predicate: value_after - value_before - fees > 0."""

    value_before: TokenAmount
    value_after: TokenAmount
    fees: TokenAmount
    margin: TokenAmount
    satisfied: bool

    def to_doc(self) -> dict:
        return {
            "reference_asset": str(self.margin.asset),
            "value_before": self.value_before.raw,
            "value_after": self.value_after.raw,
            "fees": self.fees.raw,
            "margin": self.margin.raw,
            "decimals": self.margin.decimals,
            "satisfied": self.satisfied,
        }


def compute_fees(
    records: Iterable[TxRecord],
    payers: Iterable[Address],
    decimals: int = 18,
    asset: str = "native",
) -> TokenAmount:
    """Total gas spend (gas_used * effective price) by the payer set."""
    payer_set = set(payers)
    total = 0
    for record in records:
        if record.from_address in payer_set:
            total += record.gas_used * record.effective_gas_price
    return TokenAmount(total, decimals, asset)


#: Price of one base unit of an asset, in reference-asset base units.
PriceMap = Mapping[str, Fraction]


def value_portfolio(
    holdings: Iterable[TokenAmount],
    prices: PriceMap,
    reference_asset: str = "native",
    reference_decimals: int = 18,
) -> TokenAmount:
    """Value holdings in the reference asset with exact rational arithmetic.

    The final amount floors to an integer base-unit count; the reference
    asset itself always prices at 1.
    """
    total = Fraction(0)
    for holding in holdings:
        key = str(holding.asset)
        if key == reference_asset:
            price = Fraction(1)
        else:
            try:
                price = prices[key]
            except KeyError:
                raise ValuationError(f"no price for asset {key}") from None
        total += Fraction(holding.raw) * price
    return TokenAmount(int(total), reference_decimals, reference_asset)


def evaluate_profit_predicate(
    value_before: TokenAmount,
    value_after: TokenAmount,
    fees: TokenAmount,
) -> ProfitAssessment:
    """Strict monetary predicate; a zero margin does not qualify."""
    margin = value_after - value_before - fees
    return ProfitAssessment(
        value_before=value_before,
        value_after=value_after,
        fees=fees,
        margin=margin,
        satisfied=margin.raw > 0,
    )
