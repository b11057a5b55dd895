"""Chain data gateway: typed requests, record/replay fixtures, live access."""

from .base import (
    LOOKUP_BATCH,
    BootstrapError,
    ChainAdapter,
    GatewayError,
    MissingCredential,
    MissingFixture,
    UnsupportedRequest,
    UpstreamError,
    load_rpc_map,
    lookup_members,
    resolve_rpc_url,
    tx_lookup,
)
from .collect import (
    FETCH_WORKERS,
    SEED_ARTIFACT_KINDS,
    SessionMemo,
    adapter_memo,
    execute_data_requests,
    fetch_many,
    fetch_seed_artifacts,
)
from .fixtures import FixtureStore, RecordingAdapter, ReplayAdapter, fixture_key
from .live import LiveAdapter, disassemble
from .types import (
    BalanceDelta,
    DataRequest,
    TraceNode,
    TxRecord,
)

__all__ = [
    "BalanceDelta",
    "BootstrapError",
    "ChainAdapter",
    "DataRequest",
    "FETCH_WORKERS",
    "FixtureStore",
    "GatewayError",
    "LOOKUP_BATCH",
    "LiveAdapter",
    "MissingCredential",
    "MissingFixture",
    "RecordingAdapter",
    "ReplayAdapter",
    "SEED_ARTIFACT_KINDS",
    "SessionMemo",
    "TraceNode",
    "TxRecord",
    "UnsupportedRequest",
    "UpstreamError",
    "adapter_memo",
    "disassemble",
    "execute_data_requests",
    "fetch_many",
    "fetch_seed_artifacts",
    "fixture_key",
    "load_rpc_map",
    "lookup_members",
    "resolve_rpc_url",
    "tx_lookup",
]
