"""Self-contained incident case bundles for fully offline pipeline runs.

This module is the one place that knows what a replay case is: a directory
of recorded chain fixtures (``fixtures/``), scripted role outputs
(``script/<role>_<n>.json``), canned test-run transcripts
(``transcripts/run_<n>.txt``) and an ``expected.json`` stating what a
replay of the case must produce.  ``build_case`` copies a case into a
working directory, and ``load_numbered`` reads its numbered files for the
scripted backend and the transcript runner.  A case directory whose
``expected.json`` names a ``base`` is an overlay on that bundled case.

Two cases are committed as data under ``data/cases/<name>/``.  They are
complementary: the staking-rewards case is the straight-through path
(challenger passes first try, one reproduction), while the loan-cap case
exercises every rejection route the pipeline has (evidence re-collection
plus two distinct PoC rejections).

The constants below name the incidents' transactions, accounts and oracles
for the monitor, lifecycle and session tests.  No code regenerates the data,
so ``tests/test_case_data.py`` checks it against them and against the
fixture store's own keys.
"""

from __future__ import annotations

import functools
import logging
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from . import workspace
from .agents import ScriptedBackend
from .domain import Address, SeedRef
from .gateway import FixtureStore, ReplayAdapter
from .harness import SimulatedRunner
from .lifecycle import ParticipantSet

logger = logging.getLogger(__name__)

#: The committed case trees, one directory per entry of ``CASE_BUILDERS``.
CASES_DIR = Path(__file__).parent / "data" / "cases"


def _tx(prefix: str, suffix: str) -> str:
    """Full-length transaction hash from a known prefix and suffix."""
    return "0x" + prefix + "0" * (64 - len(prefix) - len(suffix)) + suffix


def _addr(prefix: str, suffix: str = "") -> str:
    return "0x" + prefix + "0" * (40 - len(prefix) - len(suffix)) + suffix


# ==========================================================================
# Case 1: staking-rewards emission drain on Base (chain 8453).

PRXVT_CHAIN = 8453
PRXVT_SEED = _tx("88610208", "5494")
PRXVT_TX_PREPARE = _tx("7cf175", "a5a8")
PRXVT_TX_LOOP_A = _tx("e1a6c6", "47a8")
PRXVT_TX_LOOP_B = _tx("91d8e0", "81f1")
PRXVT_TX_DRAIN = _tx("04c182", "b7ea")
PRXVT_TX_EXIT = _tx("20094a", "7d10")
PRXVT_TX_FILLER_1 = _tx("f111e1", "0001")
PRXVT_TX_FILLER_2 = _tx("f111e2", "0002")

PRXVT_EOA = _addr("7407", "2f45")
PRXVT_ORCH = _addr("7029", "bce9")
PRXVT_HELPER = _addr("f3fe", "410c")
PRXVT_STAKING = _addr("57a6", "c0de")
PRXVT_TOKEN = _addr("c2ff", "4bc0")

PRXVT_SEED_BLOCK = 40230818
PRXVT_FORK_BLOCK = PRXVT_SEED_BLOCK - 1

#: The six lifecycle transactions, in block order.
PRXVT_LIFECYCLE = (
    (PRXVT_TX_PREPARE, "setup"),
    (PRXVT_SEED, "exploit"),
    (PRXVT_TX_LOOP_A, "exploit"),
    (PRXVT_TX_LOOP_B, "exploit"),
    (PRXVT_TX_DRAIN, "exploit"),
    (PRXVT_TX_EXIT, "exit"),
)

PRXVT_ALL_RELEVANT = (
    PRXVT_TX_PREPARE,
    PRXVT_SEED,
    PRXVT_TX_FILLER_1,
    PRXVT_TX_LOOP_A,
    PRXVT_TX_LOOP_B,
    PRXVT_TX_FILLER_2,
    PRXVT_TX_DRAIN,
    PRXVT_TX_EXIT,
)

PRXVT_PARTICIPANTS = ParticipantSet(
    origin=Address(PRXVT_EOA),
    adversary_eoas=frozenset({Address(PRXVT_EOA)}),
    adversary_contracts=frozenset({Address(PRXVT_ORCH), Address(PRXVT_HELPER)}),
    victims=frozenset({Address(PRXVT_STAKING)}),
    helpers=frozenset({Address(PRXVT_TOKEN)}),
)

PRXVT_ORACLE_IDS = (
    "P1_pool_funded_before",
    "H1_reward_asset_identity",
    "H2_total_staked_unchanged",
    "H3_fresh_helper_claims_rewards",
    "S1_attacker_reward_gain",
    "S2_reward_pool_depletion",
)


# ==========================================================================
# Case 2: loan-cap disparity drain on Ethereum (chain 1).

VAL_CHAIN = 1
VAL_SEED = _tx("7f140643", "e3395c")
VAL_TX_DEPLOY = _tx("de9107", "c4ee")

VAL_EOA = _addr("ed5a")
VAL_EOA_2 = _addr("3963")
VAL_ROUTER = _addr("88f5")
VAL_OFFICER = _addr("8357")
VAL_PROXY = _addr("7b4d")
VAL_REGISTRAR = _addr("57dc")
VAL_WETH9 = "0xc02aaa39b223fe8d0a0e5c4f27ead9083c756cc2"
VAL_PAXG = "0x45804880de22913dafe09f4980848ece6ecbaf78"
VAL_VY = _addr("a1ce", "beef")

VAL_SEED_BLOCK = 0x17084CF
VAL_FORK_BLOCK = VAL_SEED_BLOCK - 1

VAL_ORACLE_IDS = (
    "H1_vy_total_supply_increases",
    "H2_paxg_cap_increases",
    "H3_paxg_cap_above_collateral_after",
    "H4_vy_collateralized_loan_opened",
    "S1_attacker_eth_profit",
    "S2_weth9_reserve_depletion",
)

VAL_PARTICIPANTS = ParticipantSet(
    origin=Address(VAL_EOA),
    adversary_eoas=frozenset({Address(VAL_EOA), Address(VAL_EOA_2)}),
    adversary_contracts=frozenset({Address(VAL_ROUTER)}),
    victims=frozenset({Address(VAL_OFFICER), Address(VAL_PROXY), Address(VAL_WETH9)}),
    helpers=frozenset({Address(VAL_REGISTRAR), Address(VAL_PAXG), Address(VAL_VY)}),
)


# ==========================================================================
# Bundle assembly.

#: A numbered replay file's name without its suffix: ``<stem>_<n>``.
_NUMBERED = re.compile(r"^(?P<stem>[a-z_]+)_(?P<index>[0-9]+)$")


def load_numbered(directory: str | Path, suffix: str) -> dict[str, list[Any]]:
    """The ``<stem>_<n><suffix>`` files in ``directory`` by stem, in index
    order: JSON objects for ``.json``, text otherwise.  Other files are
    ignored, and a missing directory holds none.  Each stem's indices must
    run 0, 1, 2, ... with no gap and none repeated; a gap, a repeated index
    or a file that does not decode raises ``CorruptArtifact``."""
    staged: dict[str, dict[int, Any]] = {}
    for path in sorted(Path(directory).glob("*" + suffix)):
        match = _NUMBERED.match(path.name[: -len(suffix)])
        if not match:
            continue
        by_index = staged.setdefault(match["stem"], {})
        index = int(match["index"])
        if index in by_index:
            raise workspace.CorruptArtifact(f"{path}: index {index} repeated")
        if suffix == ".json":
            by_index[index] = workspace.read_json(path)
            if not isinstance(by_index[index], dict):
                raise workspace.CorruptArtifact(f"{path}: not a JSON object")
            continue
        try:
            by_index[index] = path.read_text(encoding="utf-8")
        except ValueError as exc:
            raise workspace.CorruptArtifact(f"{path}: {exc}") from exc
    for stem, by_index in staged.items():
        if sorted(by_index) != list(range(len(by_index))):
            raise workspace.CorruptArtifact(
                f"{directory}: {stem} indices have gaps: {sorted(by_index)}"
            )
    return {stem: [found[i] for i in sorted(found)] for stem, found in staged.items()}


@dataclass(frozen=True)
class CaseBundle:
    """One materialized case directory plus its replay expectations."""

    name: str
    chainid: int
    seed_txhash: str
    root: Path
    expected: dict[str, Any]

    @property
    def fixtures_dir(self) -> Path:
        return self.root / "fixtures"

    @property
    def script_dir(self) -> Path:
        return self.root / "script"

    @property
    def transcripts_dir(self) -> Path:
        return self.root / "transcripts"

    def seed(self) -> SeedRef:
        return SeedRef.from_strings(self.chainid, [self.seed_txhash])

    def adapter(self) -> ReplayAdapter:
        return ReplayAdapter(FixtureStore(self.fixtures_dir))

    def backend(self) -> ScriptedBackend:
        return ScriptedBackend(load_numbered(self.script_dir, ".json"))

    def runner(self) -> SimulatedRunner:
        return SimulatedRunner(load_numbered(self.transcripts_dir, ".txt").get("run"))


def build_case(case: str | Path, case_dir: str | Path) -> CaseBundle:
    """Copy ``case`` into ``case_dir`` and return its bundle.

    ``case`` is the name of a bundled case or any directory laid out as one.
    A case whose ``expected.json`` names a bundled case as its ``base`` is an
    overlay: the base is built first and the overlay's files are copied on
    top, so the seed comes from the base and the golden from the overlay.

    Every file is a real copy, never a link, so a caller may edit the built
    case in place without touching its source; a build over an earlier one
    overwrites its files in place.  Each directory is made once and each
    file read and written once, with no metadata copied; links in the
    source are followed, as ``shutil.copytree`` follows them.
    """
    if case in CASE_BUILDERS:
        source = CASES_DIR / case
    elif os.path.isdir(case):
        source = Path(case)
    else:
        raise workspace.ArtifactNotFound(f"{case}: neither a bundled case nor a directory")
    path = source / "expected.json"
    expected = workspace.read_json(path)
    seed_doc = expected
    if isinstance(expected, dict) and "base" in expected:
        base = expected["base"]
        if not isinstance(base, str) or base not in CASE_BUILDERS:
            raise workspace.CorruptArtifact(f"{path}: base is not a bundled case")
        seed_doc = build_case(base, case_dir).expected
    if not (isinstance(seed_doc, dict) and "chainid" in seed_doc and "seed" in seed_doc):
        raise workspace.CorruptArtifact(f"{path}: names no chainid and seed")
    root, top = str(case_dir), str(source)
    for src_dir, _, file_names in os.walk(top, followlinks=True):
        dst_dir = root + src_dir[len(top):]
        os.makedirs(dst_dir, exist_ok=True)
        for file_name in file_names:
            with open(os.path.join(src_dir, file_name), "rb") as src:
                data = src.read()
            with open(os.path.join(dst_dir, file_name), "wb") as dst:
                dst.write(data)
    logger.info("built case %s at %s", source.name, root)
    return CaseBundle(
        name=source.name,
        chainid=seed_doc["chainid"],
        seed_txhash=seed_doc["seed"],
        root=Path(root),
        expected=expected,
    )


#: A builder per directory under ``CASES_DIR``, named without listing it
#: at import: ``CASE_BUILDERS[name](case_dir)`` is ``build_case(name, case_dir)``.
CASE_BUILDERS: dict[str, Callable[[str | Path], CaseBundle]] = {
    name: functools.partial(build_case, name) for name in ("prxvt", "valinity")
}
