"""ACT monetary predicate: fee accounting, exact profit margin, valuation.

The profit figures for the loan-disparity incident are checked against an
independent hand computation in wei, not against constants exported by the
module under test.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from txpostmortem.act import (
    ValuationError,
    compute_fees,
    evaluate_profit_predicate,
    value_portfolio,
)
from txpostmortem.domain import NATIVE_ASSET, Address, TokenAmount, TxHash
from txpostmortem.gateway.types import TxRecord

WEI = 10**18

PAYER = Address("0x" + "11" * 20)
OTHER = Address("0x" + "22" * 20)


def _record(n: int, sender: Address, gas_used: int, price: int) -> TxRecord:
    return TxRecord(
        txhash=TxHash("0x" + f"{n:064x}"),
        block_number=100 + n,
        from_address=sender,
        to_address=OTHER,
        selector=None,
        value=0,
        gas_used=gas_used,
        effective_gas_price=price,
        status=True,
    )


def _native(raw: int) -> TokenAmount:
    return TokenAmount(raw, 18, NATIVE_ASSET)


class TestComputeFees:
    def test_sums_only_payer_transactions(self):
        records = [
            _record(1, PAYER, 21_000, 10),
            _record(2, OTHER, 50_000, 10),
            _record(3, PAYER, 100_000, 3),
        ]
        # By hand: 21000*10 + 100000*3 = 510_000; the OTHER row is excluded.
        fees = compute_fees(records, [PAYER])
        assert fees.raw == 510_000
        assert fees.decimals == 18
        assert str(fees.asset) == NATIVE_ASSET

    def test_empty_inputs_cost_nothing(self):
        assert compute_fees([], [PAYER]).raw == 0
        assert compute_fees([_record(1, PAYER, 1, 1)], []).raw == 0

    @given(
        rows=st.lists(
            st.tuples(
                st.booleans(),
                st.integers(min_value=0, max_value=10**7),
                st.integers(min_value=0, max_value=10**12),
            ),
            max_size=20,
        )
    )
    def test_matches_direct_summation(self, rows):
        records = [
            _record(i, PAYER if mine else OTHER, gas, price)
            for i, (mine, gas, price) in enumerate(rows)
        ]
        expected = sum(gas * price for mine, gas, price in rows if mine)
        assert compute_fees(records, [PAYER]).raw == expected


class TestLoanDisparityIncidentNumbers:
    """The headline margin, rebuilt from its published components."""

    # Adversary account: 18.4981 ETH before, 40.6168 ETH after, and one
    # seed transaction burning 3_166_000 gas at 0.1 gwei.
    BEFORE = 18_498_100_000_000_000_000
    AFTER = 40_616_800_000_000_000_000
    GAS_USED = 3_166_000
    GAS_PRICE = 100_000_000

    def test_fee_component(self):
        record = _record(1, PAYER, self.GAS_USED, self.GAS_PRICE)
        fees = compute_fees([record], [PAYER])
        assert fees.raw == 316_600_000_000_000  # 0.0003166 ETH
        assert fees.to_decimal_string() == "0.0003166"

    def test_margin_matches_hand_computation(self):
        fees = _native(self.GAS_USED * self.GAS_PRICE)
        outcome = evaluate_profit_predicate(_native(self.BEFORE), _native(self.AFTER), fees)
        hand_margin = self.AFTER - self.BEFORE - self.GAS_USED * self.GAS_PRICE
        assert outcome.margin.raw == hand_margin == 22_118_383_400_000_000_000
        assert outcome.satisfied is True

    def test_margin_rounds_to_the_published_figure(self):
        fees = _native(self.GAS_USED * self.GAS_PRICE)
        outcome = evaluate_profit_predicate(_native(self.BEFORE), _native(self.AFTER), fees)
        # 22.1184 ETH to four decimals, within one unit in the fourth place.
        assert abs(outcome.margin.raw - 22_118_400_000_000_000_000) <= 10**14


class TestProfitPredicate:
    def test_zero_margin_is_not_profit(self):
        outcome = evaluate_profit_predicate(_native(5), _native(7), _native(2))
        assert outcome.margin.raw == 0
        assert outcome.satisfied is False

    def test_one_wei_margin_is_profit(self):
        outcome = evaluate_profit_predicate(_native(5), _native(8), _native(2))
        assert outcome.margin.raw == 1
        assert outcome.satisfied is True

    def test_losses_are_not_profit(self):
        outcome = evaluate_profit_predicate(_native(10), _native(5), _native(0))
        assert outcome.satisfied is False

    @given(
        before=st.integers(min_value=0, max_value=10**24),
        after=st.integers(min_value=0, max_value=10**24),
        fees=st.integers(min_value=0, max_value=10**20),
    )
    def test_margin_identity_and_strictness(self, before: int, after: int, fees: int):
        outcome = evaluate_profit_predicate(_native(before), _native(after), _native(fees))
        assert outcome.margin.raw == after - before - fees
        assert outcome.satisfied == (after - before - fees > 0)

    def test_doc_shape(self):
        doc = evaluate_profit_predicate(_native(1), _native(3), _native(1)).to_doc()
        assert doc == {
            "reference_asset": NATIVE_ASSET,
            "value_before": 1,
            "value_after": 3,
            "fees": 1,
            "margin": 1,
            "decimals": 18,
            "satisfied": True,
        }


class TestPortfolioValuation:
    TOKEN = "0x" + "aa" * 20

    def test_reference_asset_prices_at_one(self):
        total = value_portfolio([_native(7 * WEI)], {})
        assert total.raw == 7 * WEI

    def test_token_priced_exactly(self):
        holdings = [TokenAmount(300, 18, self.TOKEN), _native(100)]
        total = value_portfolio(holdings, {self.TOKEN: Fraction(1, 3)})
        assert total.raw == 200  # 300/3 + 100, exact

    def test_floors_toward_zero(self):
        holdings = [TokenAmount(100, 18, self.TOKEN)]
        assert value_portfolio(holdings, {self.TOKEN: Fraction(1, 3)}).raw == 33

    def test_missing_price_is_fatal(self):
        with pytest.raises(ValuationError):
            value_portfolio([TokenAmount(1, 18, self.TOKEN)], {})

    @given(
        raws=st.lists(st.integers(min_value=0, max_value=10**12), max_size=8),
        num=st.integers(min_value=1, max_value=1000),
        den=st.integers(min_value=1, max_value=1000),
    )
    def test_matches_rational_oracle(self, raws, num, den):
        price = Fraction(num, den)
        holdings = [TokenAmount(raw, 18, self.TOKEN) for raw in raws]
        expected = int(sum(Fraction(raw) * price for raw in raws))
        assert value_portfolio(holdings, {self.TOKEN: price}).raw == expected
