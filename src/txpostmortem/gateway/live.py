"""Live chain adapter: JSON-RPC node plus explorer API, with retries.

Network access is isolated behind two injectable callables (``rpc_post`` and
``api_get``) so the adapter logic is testable without sockets.  Payloads are
normalized into the canonical document shapes defined in ``types``; callers
never see provider-specific field names.  Transport errors, HTTP 408, 429
and 5xx, and explorer rate limits are retried with backoff; any other HTTP
4xx or error reply is final.
"""

from __future__ import annotations

import itertools
import logging
import os
import time
from typing import Any, Callable, Mapping, Optional

from ..domain import Address
from .base import (
    MissingCredential,
    SharedResults,
    UnsupportedRequest,
    UpstreamError,
    load_rpc_map,
    resolve_rpc_url,
)
from .types import DataRequest

logger = logging.getLogger(__name__)

EXPLORER_API_URL = "https://api.etherscan.io/v2/api"

#: Prestate diffs an adapter keeps for the kinds that share them.
PRESTATE_CACHE_SIZE = 16

# Opcode mnemonics for the bytecode fallback listing.  Only the common
# subset; unknown bytes render as raw hex so nothing is silently dropped.
_OPCODES = {
    0x00: "STOP", 0x01: "ADD", 0x02: "MUL", 0x03: "SUB", 0x04: "DIV",
    0x05: "SDIV", 0x06: "MOD", 0x07: "SMOD", 0x08: "ADDMOD", 0x09: "MULMOD",
    0x0A: "EXP", 0x0B: "SIGNEXTEND", 0x10: "LT", 0x11: "GT", 0x12: "SLT",
    0x13: "SGT", 0x14: "EQ", 0x15: "ISZERO", 0x16: "AND", 0x17: "OR",
    0x18: "XOR", 0x19: "NOT", 0x1A: "BYTE", 0x1B: "SHL", 0x1C: "SHR",
    0x1D: "SAR", 0x20: "KECCAK256", 0x30: "ADDRESS", 0x31: "BALANCE",
    0x32: "ORIGIN", 0x33: "CALLER", 0x34: "CALLVALUE", 0x35: "CALLDATALOAD",
    0x36: "CALLDATASIZE", 0x37: "CALLDATACOPY", 0x38: "CODESIZE",
    0x39: "CODECOPY", 0x3A: "GASPRICE", 0x3B: "EXTCODESIZE",
    0x3C: "EXTCODECOPY", 0x3D: "RETURNDATASIZE", 0x3E: "RETURNDATACOPY",
    0x3F: "EXTCODEHASH", 0x40: "BLOCKHASH", 0x41: "COINBASE",
    0x42: "TIMESTAMP", 0x43: "NUMBER", 0x44: "PREVRANDAO", 0x45: "GASLIMIT",
    0x46: "CHAINID", 0x47: "SELFBALANCE", 0x48: "BASEFEE", 0x50: "POP",
    0x51: "MLOAD", 0x52: "MSTORE", 0x53: "MSTORE8", 0x54: "SLOAD",
    0x55: "SSTORE", 0x56: "JUMP", 0x57: "JUMPI", 0x58: "PC", 0x59: "MSIZE",
    0x5A: "GAS", 0x5B: "JUMPDEST", 0x5F: "PUSH0", 0xF0: "CREATE",
    0xF1: "CALL", 0xF2: "CALLCODE", 0xF3: "RETURN", 0xF4: "DELEGATECALL",
    0xF5: "CREATE2", 0xFA: "STATICCALL", 0xFD: "REVERT", 0xFE: "INVALID",
    0xFF: "SELFDESTRUCT",
}
for _n in range(16):
    _OPCODES[0x80 + _n] = f"DUP{_n + 1}"
    _OPCODES[0x90 + _n] = f"SWAP{_n + 1}"
for _n in range(5):
    _OPCODES[0xA0 + _n] = f"LOG{_n}"


def disassemble(bytecode_hex: str, limit: int = 4096) -> str:
    """Render deployed bytecode as a flat mnemonic listing."""
    body = bytecode_hex[2:] if bytecode_hex[:2] in ("0x", "0X") else bytecode_hex
    data = bytes.fromhex(body)
    lines: list[str] = []
    pc = 0
    while pc < len(data) and len(lines) < limit:
        op = data[pc]
        if 0x60 <= op <= 0x7F:
            width = op - 0x5F
            arg = data[pc + 1 : pc + 1 + width]
            lines.append(f"{pc:06x}: PUSH{width} 0x{arg.hex()}")
            pc += 1 + width
        else:
            name = _OPCODES.get(op, f"UNKNOWN_0x{op:02x}")
            lines.append(f"{pc:06x}: {name}")
            pc += 1
    return "\n".join(lines)


class ErrorReply(UpstreamError):
    """The node answered with a JSON-RPC error, the explorer with an error
    other than a rate limit, or either with an HTTP 4xx status other than
    408 and 429.  The same request gets the same answer, so it is final and
    never retried."""


#: HTTP 4xx statuses that say "try again later", not "this request is wrong".
_RETRIED_4XX = (408, 429)


def _final_status(exc: Exception) -> int | None:
    """The HTTP status of a transport error that retrying cannot change, or
    None.  The status is read from ``exc.response.status_code`` when there
    is one, as ``requests`` sets it; other transports carry none and are
    retried."""
    status = getattr(getattr(exc, "response", None), "status_code", None)
    if isinstance(status, int) and 400 <= status < 500 and status not in _RETRIED_4XX:
        return status
    return None


def _default_rpc_post(url: str, body: dict[str, Any], timeout: float) -> dict[str, Any]:
    import requests

    response = requests.post(url, json=body, timeout=timeout)
    response.raise_for_status()
    return response.json()


def _default_api_get(url: str, params: dict[str, Any], timeout: float) -> dict[str, Any]:
    import requests

    response = requests.get(url, params=params, timeout=timeout)
    response.raise_for_status()
    return response.json()


def _hex_int(value: Any, default: int = 0) -> int:
    if value is None:
        return default
    if isinstance(value, int):
        return value
    return int(str(value), 16) if str(value).startswith("0x") else int(value)


def _selector_of(input_data: Optional[str]) -> Optional[str]:
    if input_data and input_data.startswith("0x") and len(input_data) >= 10:
        return input_data[:10].lower()
    return None


class LiveAdapter:
    """Fetches evidence from a JSON-RPC node and an explorer API."""

    def __init__(
        self,
        env: Mapping[str, str] | None = None,
        rpc_map: Mapping[int, str] | None = None,
        rpc_post: Callable[[str, dict[str, Any], float], dict[str, Any]] = _default_rpc_post,
        api_get: Callable[[str, dict[str, Any], float], dict[str, Any]] = _default_api_get,
        retries: int = 3,
        backoff: float = 0.5,
        timeout: float = 30.0,
    ):
        self.env = dict(os.environ if env is None else env)
        self.rpc_map = load_rpc_map() if rpc_map is None else rpc_map
        self.rpc_post = rpc_post
        self.api_get = api_get
        self.retries = retries
        self.backoff = backoff
        self.timeout = timeout
        self._rpc_ids = itertools.count(1)
        # One prestateTracer diff per (chain, tx) serves both balance_diff
        # and state_diff; the first caller fetches, the others wait on it.
        self._prestate = SharedResults(maxsize=PRESTATE_CACHE_SIZE)

    # -- transport ---------------------------------------------------------

    def _with_retries(self, call: Callable[[], dict[str, Any]], what: str) -> dict[str, Any]:
        last: Exception | None = None
        for attempt in range(self.retries):
            try:
                return call()
            except ErrorReply:
                raise
            except Exception as exc:  # transport errors are opaque; retry them
                if (status := _final_status(exc)) is not None:
                    raise ErrorReply(f"{what}: HTTP {status}: {exc}") from exc
                last = exc
                logger.warning("%s failed (attempt %d/%d): %s", what, attempt + 1, self.retries, exc)
                if attempt + 1 < self.retries:
                    time.sleep(self.backoff * (2**attempt))
        raise UpstreamError(f"{what} failed after {self.retries} attempts: {last}")

    def _rpc(self, chainid: int, method: str, params: list[Any]) -> Any:
        url = resolve_rpc_url(chainid, self.env, self.rpc_map)
        body = {"jsonrpc": "2.0", "id": next(self._rpc_ids), "method": method, "params": params}

        def call() -> dict[str, Any]:
            doc = self.rpc_post(url, body, self.timeout)
            if doc.get("error"):
                raise ErrorReply(f"rpc {method} chain {chainid}: {doc['error']}")
            return doc

        return self._with_retries(call, f"rpc {method} chain {chainid}")["result"]

    def _explorer(self, chainid: int, params: dict[str, Any]) -> Any:
        key = self.env.get("ETHERSCAN_API_KEY")
        if not key:
            raise MissingCredential("explorer access needs ETHERSCAN_API_KEY")
        query = {"chainid": chainid, "apikey": key, **params}

        def call() -> dict[str, Any]:
            doc = self.api_get(EXPLORER_API_URL, query, self.timeout)
            if str(doc.get("status")) == "0" and doc.get("message") != "No transactions found":
                text = f"explorer: {doc.get('result') or doc.get('message')}"
                if "rate limit" in text.lower():
                    raise UpstreamError(text)  # transient: retried after a backoff
                raise ErrorReply(text)
            return doc

        return self._with_retries(call, f"explorer {params.get('action')} chain {chainid}")["result"]

    # -- per-kind fetchers --------------------------------------------------

    def fetch(self, request: DataRequest) -> dict[str, Any]:
        handler = getattr(self, f"_fetch_{request.kind}", None)
        if handler is None:
            raise UnsupportedRequest(f"live adapter cannot serve kind {request.kind!r}")
        return handler(request)

    def _fetch_tx_metadata(self, request: DataRequest) -> dict[str, Any]:
        tx = self._rpc(request.chainid, "eth_getTransactionByHash", [request.target])
        if tx is None:
            raise UpstreamError(f"transaction not found: {request.target}")
        if tx.get("blockNumber") is None:
            # Pending: no block, no receipt, and nothing a window can be mined around.
            raise UpstreamError(f"transaction pending: {request.target}")
        receipt = self._rpc(request.chainid, "eth_getTransactionReceipt", [request.target]) or {}
        return {
            "txhash": request.normalized_target(),
            "chainid": request.chainid,
            "block_number": _hex_int(tx.get("blockNumber")),
            "from": tx.get("from", "").lower(),
            "to": (tx.get("to") or "").lower() or None,
            "value": _hex_int(tx.get("value")),
            "nonce": _hex_int(tx.get("nonce")),
            "gas_used": _hex_int(receipt.get("gasUsed")),
            "effective_gas_price": _hex_int(
                receipt.get("effectiveGasPrice", tx.get("gasPrice"))
            ),
            "status": _hex_int(receipt.get("status"), 1),
            "selector": _selector_of(tx.get("input")),
        }

    def _fetch_tx_trace(self, request: DataRequest) -> dict[str, Any]:
        frame = self._rpc(
            request.chainid,
            "debug_traceTransaction",
            [request.target, {"tracer": "callTracer"}],
        )

        def convert(node: dict[str, Any]) -> dict[str, Any]:
            return {
                "call_type": node.get("type", "CALL"),
                "from": node.get("from", "").lower(),
                "to": (node.get("to") or "").lower() or None,
                "value": _hex_int(node.get("value")),
                "gas_used": _hex_int(node.get("gasUsed")),
                "selector": _selector_of(node.get("input")),
                "error": node.get("error"),
                "children": [convert(c) for c in node.get("calls", [])],
            }

        return {"root": convert(frame)}

    def _prestate_diff(self, request: DataRequest) -> dict[str, Any]:
        return self._prestate.get(
            (request.chainid, request.normalized_target()),
            lambda: self._rpc(
                request.chainid,
                "debug_traceTransaction",
                [request.target, {"tracer": "prestateTracer", "tracerConfig": {"diffMode": True}}],
            ),
        )

    def _fetch_balance_diff(self, request: DataRequest) -> dict[str, Any]:
        diff = self._prestate_diff(request)
        entries = []
        pre, post = diff.get("pre", {}), diff.get("post", {})
        for account in sorted(set(pre) | set(post)):
            before = _hex_int(pre.get(account, {}).get("balance"))
            after = _hex_int(post.get(account, {}).get("balance"), before)
            if account in post and "balance" not in post[account]:
                after = before
            if after != before:
                entries.append(
                    {
                        "address": account.lower(),
                        "asset": "native",
                        "delta": after - before,
                        "decimals": 18,
                    }
                )
        return {"entries": entries}

    def _fetch_state_diff(self, request: DataRequest) -> dict[str, Any]:
        diff = self._prestate_diff(request)
        return {"pre": diff.get("pre", {}), "post": diff.get("post", {})}

    def _fetch_receipt_logs(self, request: DataRequest) -> dict[str, Any]:
        receipt = self._rpc(request.chainid, "eth_getTransactionReceipt", [request.target]) or {}
        return {"logs": receipt.get("logs", [])}

    def _fetch_txlist(self, request: DataRequest) -> dict[str, Any]:
        rows = self._explorer(
            request.chainid,
            {
                "module": "account",
                "action": "txlist",
                "address": request.target,
                "startblock": request.block_lo or 0,
                "endblock": request.block_hi or 99999999,
                "sort": "asc",
            },
        )
        records = []
        for i, row in enumerate(rows or []):
            records.append(
                {
                    "txhash": row["hash"].lower(),
                    "block_number": _hex_int(row.get("blockNumber")),
                    "from": row.get("from", "").lower(),
                    "to": (row.get("to") or "").lower() or None,
                    "selector": _selector_of(row.get("input")),
                    "value": _hex_int(row.get("value")),
                    "gas_used": _hex_int(row.get("gasUsed")),
                    "effective_gas_price": _hex_int(row.get("gasPrice")),
                    "status": str(row.get("isError", "0")) == "0",
                    "index": i,
                }
            )
        return {"records": records}

    def _fetch_contract_meta(self, request: DataRequest) -> dict[str, Any]:
        address = Address(request.target)
        doc: dict[str, Any] = {
            "address": address.value,
            "chainid": request.chainid,
            "verified": False,
            "source_kind": "unavailable",
            "name": None,
            "content": "",
            "implementation": None,
        }
        try:
            rows = self._explorer(
                request.chainid,
                {"module": "contract", "action": "getsourcecode", "address": address.value},
            )
            row = rows[0] if rows else {}
            source = row.get("SourceCode") or ""
            if source:
                doc.update(
                    verified=True,
                    source_kind="verified_source",
                    name=row.get("ContractName") or None,
                    content=source,
                )
                impl = (row.get("Implementation") or "").lower()
                if impl:
                    doc["implementation"] = impl
                return doc
        except (UpstreamError, MissingCredential) as exc:
            logger.info("source lookup failed for %s: %s", address, exc)
        code = self._rpc(request.chainid, "eth_getCode", [address.value, "latest"])
        if code and code not in ("0x", "0x0"):
            # Unverified contract: keep raw bytecode plus a mnemonic listing.
            doc.update(source_kind="disassembly", content=disassemble(code))
            doc["bytecode"] = code
        return doc

    def _fetch_storage_slot(self, request: DataRequest) -> dict[str, Any]:
        slot = request.extra.get("slot", "0x0")
        block = request.extra.get("block", "latest")
        if isinstance(block, int):
            block = hex(block)
        value = self._rpc(
            request.chainid, "eth_getStorageAt", [request.target, slot, block]
        )
        return {
            "address": request.normalized_target(),
            "slot": slot,
            "block": block,
            "value_hex": value,
        }

    def _fetch_decompile(self, request: DataRequest) -> dict[str, Any]:
        # Decompilation needs an out-of-process tool; live mode only offers
        # the mnemonic listing.  Recorded fixtures may carry richer output.
        code = self._rpc(request.chainid, "eth_getCode", [request.target, "latest"])
        if not code or code in ("0x", "0x0"):
            raise UpstreamError(f"no code at {request.target}")
        return {
            "address": request.normalized_target(),
            "decompiled": disassemble(code),
            "tool": "mnemonic-listing",
        }
