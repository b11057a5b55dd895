"""Chain data gateway: typed requests, record/replay fixtures, live access."""

from .base import (
    BootstrapError,
    ChainAdapter,
    GatewayError,
    MissingCredential,
    MissingFixture,
    UnsupportedRequest,
    UpstreamError,
    load_rpc_map,
    resolve_rpc_url,
)
from .collect import (
    FETCH_WORKERS,
    SEED_ARTIFACT_KINDS,
    SessionMemo,
    adapter_memo,
    execute_data_requests,
    fetch_many,
    fetch_seed_artifacts,
    fetch_tx_metadata,
    fetch_txlists,
)
from .fixtures import FixtureStore, RecordingAdapter, ReplayAdapter, fixture_key
from .live import LiveAdapter, disassemble
from .types import (
    BalanceDelta,
    CollectionSummary,
    DataRequest,
    TraceNode,
    TxRecord,
)

__all__ = [
    "BalanceDelta",
    "BootstrapError",
    "ChainAdapter",
    "CollectionSummary",
    "DataRequest",
    "FETCH_WORKERS",
    "FixtureStore",
    "GatewayError",
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
    "fetch_tx_metadata",
    "fetch_txlists",
    "fixture_key",
    "load_rpc_map",
    "resolve_rpc_url",
]
