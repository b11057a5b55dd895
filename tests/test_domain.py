"""Value types: canonical hex forms, chain guards, exact token arithmetic."""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from txpostmortem.domain import (
    NATIVE_ASSET,
    SUPPORTED_CHAINS,
    Address,
    DomainError,
    InvalidAddress,
    InvalidTxHash,
    MixedAssetError,
    OutcomeLabel,
    SeedRef,
    TokenAmount,
    TxHash,
    UnsupportedChain,
    validate_chain,
)

hex_digits = "0123456789abcdefABCDEF"
hex64 = st.text(alphabet=hex_digits, min_size=64, max_size=64)
hex40 = st.text(alphabet=hex_digits, min_size=40, max_size=40)


class TestHexValues:
    @given(body=hex64)
    def test_txhash_canonicalizes_to_lowercase(self, body: str):
        parsed = TxHash("0x" + body)
        assert parsed.value == "0x" + body.lower()
        assert str(parsed) == parsed.value

    @given(body=hex64)
    def test_txhash_case_insensitive_equality(self, body: str):
        assert TxHash("0x" + body.upper()) == TxHash("0x" + body.lower())

    @given(body=hex40)
    def test_address_canonicalizes_to_lowercase(self, body: str):
        assert Address("0X" + body).value == "0x" + body.lower()

    @pytest.mark.parametrize(
        "raw",
        [
            "ab" * 32,            # no prefix
            "0x" + "ab" * 31,     # short
            "0x" + "ab" * 33,     # long
            "0x" + "zz" + "ab" * 31,  # non-hex
            "",
        ],
    )
    def test_txhash_rejects_malformed(self, raw: str):
        with pytest.raises(InvalidTxHash):
            TxHash(raw)

    @pytest.mark.parametrize(
        "digit", ["\u0663", "\uff41", "\uff11"], ids=["arabic-indic-3", "fullwidth-a", "fullwidth-1"]
    )
    def test_non_ascii_digits_are_rejected(self, digit: str):
        with pytest.raises(InvalidTxHash, match="transaction hash contains non-hex characters"):
            TxHash("0x" + digit + "a" * 63)
        with pytest.raises(InvalidAddress, match="address contains non-hex characters"):
            Address("0x" + "a" * 39 + digit)

    def test_txhash_rejects_non_string(self):
        with pytest.raises(InvalidTxHash):
            TxHash(123)  # type: ignore[arg-type]

    @pytest.mark.parametrize("raw", ["0x" + "ab" * 19, "0x" + "ab" * 21, "ab" * 20])
    def test_address_rejects_malformed(self, raw: str):
        with pytest.raises(InvalidAddress):
            Address(raw)

    def test_hashes_are_orderable(self):
        low = TxHash("0x" + "11" * 32)
        high = TxHash("0x" + "ff" * 32)
        assert low < high
        assert sorted([high, low]) == [low, high]


class TestChains:
    def test_every_supported_chain_validates(self):
        for chainid in SUPPORTED_CHAINS:
            assert validate_chain(chainid) == chainid

    @pytest.mark.parametrize("bad", [2, 0, -1, 10**9])
    def test_unknown_chain_rejected(self, bad: int):
        with pytest.raises(UnsupportedChain):
            validate_chain(bad)

    def test_bool_is_not_a_chain_id(self):
        # bool subclasses int; True must not pass for chain 1
        with pytest.raises(UnsupportedChain):
            validate_chain(True)

    def test_string_is_not_a_chain_id(self):
        with pytest.raises(UnsupportedChain):
            validate_chain("1")  # type: ignore[arg-type]


class TestTokenAmount:
    def test_same_asset_arithmetic(self):
        a = TokenAmount(5, 18, NATIVE_ASSET)
        b = TokenAmount(3, 18, NATIVE_ASSET)
        assert (a + b).raw == 8
        assert (a - b).raw == 2
        assert (-a).raw == -5
        assert a > b
        assert b <= a

    def test_mixed_assets_refuse_arithmetic(self):
        native = TokenAmount(1, 18, NATIVE_ASSET)
        token = TokenAmount(1, 18, Address("0x" + "11" * 20))
        with pytest.raises(MixedAssetError):
            native + token
        with pytest.raises(MixedAssetError):
            native < token

    def test_mixed_decimals_refuse_arithmetic(self):
        with pytest.raises(MixedAssetError):
            TokenAmount(1, 18, NATIVE_ASSET) + TokenAmount(1, 6, NATIVE_ASSET)

    def test_raw_must_be_a_true_integer(self):
        with pytest.raises(MixedAssetError):
            TokenAmount(True, 18, NATIVE_ASSET)
        with pytest.raises(MixedAssetError):
            TokenAmount(1.5, 18, NATIVE_ASSET)  # type: ignore[arg-type]

    @pytest.mark.parametrize("decimals", [-1, 37])
    def test_decimals_bounds(self, decimals: int):
        with pytest.raises(MixedAssetError):
            TokenAmount(1, decimals, NATIVE_ASSET)

    def test_token_asset_string_is_canonicalized(self):
        amount = TokenAmount(1, 18, "0x" + "AB" * 20)
        assert isinstance(amount.asset, Address)
        assert amount.asset.value == "0x" + "ab" * 20

    @given(
        raw=st.integers(min_value=-(10**40), max_value=10**40),
        decimals=st.integers(min_value=0, max_value=36),
    )
    def test_decimal_string_is_exact(self, raw: int, decimals: int):
        # Independent check: the rendered string must parse back to exactly
        # raw / 10**decimals with no rounding anywhere.  Fractions avoid the
        # Decimal context's 28-digit precision limit.
        rendered = TokenAmount(raw, decimals, NATIVE_ASSET).to_decimal_string()
        assert Fraction(Decimal(rendered)) == Fraction(raw, 10**decimals)
        if "." in rendered:
            assert not rendered.endswith("0")
            assert not rendered.endswith(".")

    def test_decimal_string_examples(self):
        assert TokenAmount(0, 18, NATIVE_ASSET).to_decimal_string() == "0"
        assert TokenAmount(-15, 1, NATIVE_ASSET).to_decimal_string() == "-1.5"
        assert TokenAmount(10**18, 18, NATIVE_ASSET).to_decimal_string() == "1"
        assert TokenAmount(1, 18, NATIVE_ASSET).to_decimal_string() == "0.000000000000000001"
        assert TokenAmount(42, 0, NATIVE_ASSET).to_decimal_string() == "42"

    @given(
        a=st.integers(min_value=-(10**30), max_value=10**30),
        b=st.integers(min_value=-(10**30), max_value=10**30),
    )
    def test_addition_mirrors_integer_addition(self, a: int, b: int):
        left = TokenAmount(a, 18, NATIVE_ASSET)
        right = TokenAmount(b, 18, NATIVE_ASSET)
        assert (left + right).raw == a + b
        assert (left + right) == (right + left)


class TestSeedRef:
    def test_preserves_order_and_exposes_primary(self):
        h1 = "0x" + "aa" * 32
        h2 = "0x" + "bb" * 32
        seed = SeedRef.from_strings(1, [h2, h1])
        assert seed.primary.value == h2
        assert [t.value for t in seed.txs] == [h2, h1]

    def test_rejects_duplicates_after_canonicalization(self):
        h = "0x" + "aa" * 32
        with pytest.raises(DomainError):
            SeedRef.from_strings(1, [h, h.upper().replace("0X", "0x")])

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            SeedRef(chainid=1, txs=())

    def test_rejects_unsupported_chain(self):
        with pytest.raises(UnsupportedChain):
            SeedRef.from_strings(2, ["0x" + "aa" * 32])

    def test_coerces_plain_strings(self):
        seed = SeedRef(chainid=8453, txs=("0x" + "AB" * 32,))  # type: ignore[arg-type]
        assert seed.primary.value == "0x" + "ab" * 32


def test_outcome_labels():
    assert OutcomeLabel.ALIGNED.value == "AL"
    assert OutcomeLabel.MISALIGNED.value == "MA"
    assert OutcomeLabel.MISSED.value == "MS"
    assert OutcomeLabel.NON_ACT.value == "NA"
