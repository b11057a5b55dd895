"""Self-contained incident case bundles for fully offline pipeline runs.

This module is the one place that knows what a replay case is: a directory
of recorded chain fixtures (``fixtures/``), scripted role outputs
(``script/<role>_<n>.json``), canned test-run transcripts
(``transcripts/run_<n>.txt``) and an ``expected.json`` stating what a
replay of the case must produce.  ``open_case`` reads a case where it
lies and writes nothing, and ``load_numbered`` reads its numbered files for
the scripted backend and the transcript runner.  A case directory whose
``expected.json`` names a ``base`` is an overlay on that bundled case: each
file is looked up in the overlay first, then in the base.

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
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

from . import workspace
from .agents import ScriptedBackend
from .domain import Address, SeedRef
from .gateway import FixtureStore, ReplayAdapter
from .harness import SimulatedRunner
from .lifecycle import ParticipantSet

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


def load_numbered(directories: Sequence[str | Path], suffix: str) -> dict[str, list[Any]]:
    """The ``<stem>_<n><suffix>`` files of the lookup chain ``directories``
    (``workspace.files_in_chain``) by stem, in index order: JSON objects for
    ``.json``, text otherwise.  Other files are ignored.  Each stem's indices
    must run 0, 1, 2, ... with no gap and none repeated; a gap, a repeated
    index or a file that does not decode raises ``CorruptArtifact``."""
    staged: dict[str, dict[int, Any]] = {}
    for name, path in sorted(workspace.files_in_chain(directories, suffix).items()):
        match = _NUMBERED.match(name)
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
            with open(path, encoding="utf-8") as handle:
                by_index[index] = handle.read()
        except ValueError as exc:
            raise workspace.CorruptArtifact(f"{path}: {exc}") from exc
    for stem, by_index in staged.items():
        if sorted(by_index) != list(range(len(by_index))):
            raise workspace.CorruptArtifact(
                f"{directories[0]}: {stem} indices have gaps: {sorted(by_index)}"
            )
    return {stem: [found[i] for i in sorted(found)] for stem, found in staged.items()}


@dataclass(frozen=True)
class CaseBundle:
    """One case, read where it lies, plus its replay expectations.  Each of
    its subdirectories is read across ``roots``, the case's directory and
    then, for an overlay, its base's."""

    name: str
    chainid: int
    seed_txhash: str
    roots: tuple[Path, ...]
    expected: dict[str, Any]

    @property
    def root(self) -> Path:
        return self.roots[0]

    @property
    def fixtures_dir(self) -> Path:
        return self.root / "fixtures"

    def seed(self) -> SeedRef:
        return SeedRef.from_strings(self.chainid, [self.seed_txhash])

    def adapter(self) -> ReplayAdapter:
        return ReplayAdapter(FixtureStore(*(root / "fixtures" for root in self.roots)))

    def backend(self) -> ScriptedBackend:
        return ScriptedBackend(load_numbered([root / "script" for root in self.roots], ".json"))

    def runner(self) -> SimulatedRunner:
        chain = [root / "transcripts" for root in self.roots]
        return SimulatedRunner(load_numbered(chain, ".txt").get("run"))


def open_case(case: str | Path) -> CaseBundle:
    """The bundle of ``case``, read where it lies; nothing is written.

    ``case`` is the name of a bundled case or any directory laid out as one.
    A case whose ``expected.json`` names a bundled case as its ``base`` is an
    overlay: its lookup chain is its own directory, then the base's, so the
    seed comes from the base and the golden from the overlay.
    """
    if case in CASE_BUILDERS:
        root = CASES_DIR / case
    elif os.path.isdir(case):
        root = Path(case)
    else:
        raise workspace.ArtifactNotFound(f"{case}: neither a bundled case nor a directory")
    path = root / "expected.json"
    expected = workspace.read_json(path)
    roots, seed_doc = (root,), expected
    if isinstance(expected, dict) and "base" in expected:
        base = expected["base"]
        if not isinstance(base, str) or base not in CASE_BUILDERS:
            raise workspace.CorruptArtifact(f"{path}: base is not a bundled case")
        base_bundle = open_case(base)
        roots, seed_doc = (root, *base_bundle.roots), base_bundle.expected
    if not (isinstance(seed_doc, dict) and "chainid" in seed_doc and "seed" in seed_doc):
        raise workspace.CorruptArtifact(f"{path}: names no chainid and seed")
    return CaseBundle(
        name=root.name,
        chainid=seed_doc["chainid"],
        seed_txhash=seed_doc["seed"],
        roots=roots,
        expected=expected,
    )


def _open_in(name: str, path: str | Path) -> CaseBundle:
    os.makedirs(path, exist_ok=True)
    return open_case(name)


#: The bundled cases by name.  ``perfbench/workloads.py`` calls
#: ``CASE_BUILDERS[name](path)`` and makes its set-up's files under the
#: ``path`` it names, so each entry makes that directory and then opens
#: the case in place.
CASE_BUILDERS: dict[str, Callable[[str | Path], CaseBundle]] = {
    name: functools.partial(_open_in, name) for name in ("prxvt", "valinity")
}
