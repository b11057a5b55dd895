"""Value types: canonical hex forms and chain guards; the built-in SHA-256."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import txpostmortem
from txpostmortem.domain import (
    SUPPORTED_CHAINS,
    Address,
    DomainError,
    InvalidAddress,
    InvalidTxHash,
    SeedRef,
    TxHash,
    UnsupportedChain,
    sha256,
    validate_chain,
)
from txpostmortem.gateway import DataRequest
from txpostmortem.oracles import fresh_role_address

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


_SRC = Path(txpostmortem.__file__).resolve().parents[1]

#: Runs the offline commands through ``cli.main`` in a fresh interpreter and
#: prints which OpenSSL and HTTP modules it loaded.
_OFFLINE_COMMANDS = """
import contextlib, io, json, sys
from pathlib import Path

import txpostmortem
from txpostmortem import cli

work = Path(sys.argv[1])


def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    assert code == 0, (argv, code)
    return json.loads(out.getvalue())


doc = run("postmortem", "--case", "prxvt", "--workdir", str(work))
assert doc["outcome"]["stage"] == "done", doc["outcome"]
run("evaluate", "--session", doc["session_root"])
run("metrics", "--sessions", str(work / "sessions"))
index = run("dataset", "export", "--sessions", str(work / "sessions"), "--out", str(work / "out"))
assert index["count"] == 1, index
network = {"_hashlib", "ssl", "urllib.request", "http.client", "requests"}
print(json.dumps(sorted(network & set(sys.modules))))
"""

#: Imports the package where neither built-in SHA-256 module can be
#: imported, and prints a request key and a fresh role address.
_WITHOUT_BUILTIN_SHA256 = """
import json, sys

sys.modules["_sha2"] = None
sys.modules["_sha256"] = None
from txpostmortem.gateway import DataRequest
from txpostmortem.oracles import fresh_role_address

key = DataRequest(kind="tx_trace", chainid=1, target=sys.argv[1]).key
print(json.dumps([key, fresh_role_address("attacker").value, "hashlib" in sys.modules]))
"""


def _python(*argv: str) -> str:
    result = subprocess.run(
        [sys.executable, "-X", "dev", *argv],
        env=dict(os.environ, PYTHONPATH=str(_SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestSha256:
    @settings(max_examples=500)
    @given(data=st.binary(max_size=512))
    def test_digest_matches_hashlib(self, data: bytes):
        assert sha256(data).digest() == hashlib.sha256(data).digest()

    def test_offline_commands_load_no_openssl(self, tmp_path):
        """A replay, its evaluation, metrics and an export load neither
        ``_hashlib`` nor ``ssl``, nor any HTTP client: ``urllib.request``,
        ``http.client`` or ``requests``."""
        assert json.loads(_python("-c", _OFFLINE_COMMANDS, str(tmp_path))) == []

    def test_without_the_builtin_modules_keys_come_from_hashlib(self):
        target = "0x" + "ab" * 32
        key, address, fell_back = json.loads(
            _python("-c", _WITHOUT_BUILTIN_SHA256, target)
        )
        assert fell_back
        assert key == DataRequest(kind="tx_trace", chainid=1, target=target).key
        assert address == fresh_role_address("attacker").value
