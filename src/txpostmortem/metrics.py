"""Token cost, checklist, latency and session-summary accounting.

Monetary arithmetic is exact: the token prices are the rationals
``PRICE_UNCACHED_INPUT``, ``PRICE_CACHED_INPUT`` and ``PRICE_OUTPUT`` (USD
per million tokens), accumulation happens in rationals, and rounding is
applied only at display time.  Rates are returned as rationals (or None when
the denominator is zero) and rendered as percents to one decimal place.
"""

from __future__ import annotations

from decimal import ROUND_HALF_UP, Decimal, localcontext
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Optional, Sequence

from . import workspace
from .agents import InvalidUsage, Usage


class MetricsError(Exception):
    pass


# --------------------------------------------------------------------------
# Token accounting and cost.


#: USD per million tokens.
PRICE_UNCACHED_INPUT = Fraction("1.25")
PRICE_CACHED_INPUT = Fraction("0.125")
PRICE_OUTPUT = Fraction(10)


def estimate_cost(usage: Usage) -> Decimal:
    """Exact session cost: (p_u*T_u + p_c*T_c + p_o*T_o) / 1e6."""
    total = (
        PRICE_UNCACHED_INPUT * usage.uncached_input_tokens
        + PRICE_CACHED_INPUT * usage.cached_input_tokens
        + PRICE_OUTPUT * usage.output_tokens
    ) / 1_000_000
    with localcontext() as ctx:
        ctx.prec = 60
        return Decimal(total.numerator) / Decimal(total.denominator)


def display_usd(cost: Decimal) -> str:
    """Render a cost to 4 decimal places; the only rounding point."""
    return str(cost.quantize(Decimal("0.0001"), rounding=ROUND_HALF_UP))


# --------------------------------------------------------------------------
# Percent rendering.


def as_percent(rate: Fraction) -> Decimal:
    """``rate`` in percent, rounded half up to one decimal place."""
    with localcontext() as ctx:
        ctx.prec = 60
        value = Decimal(rate.numerator) * 100 / Decimal(rate.denominator)
    return value.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP)


# --------------------------------------------------------------------------
# Checklist aggregation over incident comparison rows.

CHECKLIST_METRICS = ("c1", "c2", "c3", "q1", "q2", "q3", "q4", "q5", "q6")
SYSTEMS = ("pipeline", "baseline")


def aligned_rows(rows: Iterable[Mapping[str, Any]]) -> list[Mapping[str, Any]]:
    """Rows where an opportunity was identified and the root cause aligned."""
    return [r for r in rows if r.get("act") is True and r.get("rc") is True]


def checklist_pass_counts(
    rows: Iterable[Mapping[str, Any]],
) -> dict[str, dict[str, dict[str, int]]]:
    """Per-system, per-metric pass counts over the aligned subset.

    Cells are True/False/None; None (unscored) cells are excluded from the
    pass count but the comparison denominator is the aligned subset size.
    """
    subset = aligned_rows(rows)
    counts: dict[str, dict[str, dict[str, int]]] = {}
    for system in SYSTEMS:
        counts[system] = {}
        for metric in CHECKLIST_METRICS:
            cells = [row.get(f"{system}_{metric}") for row in subset]
            counts[system][metric] = {
                "passes": sum(1 for c in cells if c is True),
                "scored": sum(1 for c in cells if c is not None),
                "denominator": len(subset),
            }
    return counts


def pass_rate(
    counts: Mapping[str, Mapping[str, Mapping[str, int]]], system: str, metric: str
) -> Optional[Fraction]:
    cell = counts[system][metric]
    if cell["denominator"] == 0:
        return None
    return Fraction(cell["passes"], cell["denominator"])


def pass_rate_lift(
    counts: Mapping[str, Mapping[str, Mapping[str, int]]], metric: str
) -> Optional[Decimal]:
    """Percentage-point lift of the pipeline over the baseline on a metric."""
    a = pass_rate(counts, "pipeline", metric)
    b = pass_rate(counts, "baseline", metric)
    if a is None or b is None:
        return None
    return as_percent(a - b)


# --------------------------------------------------------------------------
# Latency summaries.


def percentile(values: Sequence[float], q: float) -> float:
    """Linear interpolation between closest ranks: pos = q * (n - 1)."""
    if not values:
        raise MetricsError("percentile of empty sequence")
    if not 0.0 <= q <= 1.0:
        raise MetricsError("quantile must be within [0, 1]")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    weight = pos - lo
    return ordered[lo] * (1.0 - weight) + ordered[hi] * weight


def latency_summary(durations: Sequence[float]) -> dict[str, float | int]:
    """Order statistics for a duration sample; empty input, empty summary."""
    if any(d < 0 for d in durations):
        raise MetricsError("durations must be non-negative")
    if not durations:
        return {"count": 0}
    return {
        "count": len(durations),
        "min": min(durations),
        "median": percentile(durations, 0.5),
        "q1": percentile(durations, 0.25),
        "q3": percentile(durations, 0.75),
        "p90": percentile(durations, 0.9),
        "p95": percentile(durations, 0.95),
        "max": max(durations),
    }


# --------------------------------------------------------------------------
# Session-summary aggregation.


def load_session_summaries(sessions_dir: str | Path) -> Iterator[dict[str, Any]]:
    """Yield each session summary under ``sessions_dir`` in name order, read
    and checked only when the consumer asks for it, so a report over many
    sessions holds one summary at a time.  At the point the iteration
    reaches it, a summary that does not decode or breaks the
    ``session_summary`` schema raises ``workspace.CorruptArtifact``, and one
    that holds usage no ``Usage`` can hold raises ``MetricsError``."""
    root = Path(sessions_dir)
    for path in sorted(root.glob(f"*/{workspace.SESSION_SUMMARY}")):
        doc = workspace.read_json(path, "session_summary")
        try:
            Usage.from_doc(doc["usage"])
        except InvalidUsage as exc:
            raise MetricsError(f"{path}: not a session summary: {exc}") from exc
        yield doc


def sessions_report(summaries: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """Aggregate usage, cost, and latency across finished sessions, reading
    ``summaries`` once.

    Latency is summarized per whole session, per stage and per role, since
    any grain can be the unit of interest.  Summaries key role latencies
    ``role:<name>``; the report keys them by the bare role name.
    """
    total_usage = Usage()
    per_session: list[dict[str, Any]] = []
    session_durations: list[float] = []
    stage_durations: dict[str, list[float]] = {}
    role_durations: dict[str, list[float]] = {}
    outcomes: dict[str, int] = {}
    fetched_total = 0
    for doc in summaries:
        usage = Usage.from_doc(doc["usage"])
        total_usage = total_usage + usage
        cost = estimate_cost(usage)
        stage = doc.get("outcome", {}).get("stage", "unknown")
        outcomes[stage] = outcomes.get(stage, 0) + 1
        fetched_total += int(doc.get("fetched_items", 0))
        latencies = doc.get("latencies", {})
        if "session" in latencies:
            session_durations.append(float(latencies["session"]))
        for key, value in latencies.items():
            if key == "session":
                continue
            if key.startswith("role:"):
                role_durations.setdefault(key[len("role:"):], []).append(float(value))
            else:
                stage_durations.setdefault(key, []).append(float(value))
        per_session.append(
            {
                "session_id": doc.get("session_id"),
                "stage": stage,
                "cost_usd": display_usd(cost),
                "usage": usage.to_doc(),
            }
        )
    total_cost = estimate_cost(total_usage)
    return {
        "sessions": len(per_session),
        "outcomes": outcomes,
        "usage_total": total_usage.to_doc(),
        "uncached_tokens": total_usage.uncached_input_tokens,
        "cost_usd_total": display_usd(total_cost) if per_session else "0.0000",
        "fetched_items_total": fetched_total,
        "latency_per_session": latency_summary(session_durations),
        "latency_per_stage": {
            key: latency_summary(values)
            for key, values in sorted(stage_durations.items())
        },
        "latency_per_role": {
            key: latency_summary(values)
            for key, values in sorted(role_durations.items())
        },
        "per_session": per_session,
    }
