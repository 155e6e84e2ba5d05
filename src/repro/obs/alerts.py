"""Online SLO alerting over sampled fleet telemetry.

Rules are declarative :class:`AlertRule` records evaluated at every
sample point (grid ticks *and* eager transition samples).  The grammar:

``signal``
    a column name in the fleet series (``scope="fleet"``) or in each
    tenant's series (``scope="tenant"``).
``reduce``
    how the window of samples collapses to one value:

    * ``last`` — the newest sample (``window_s`` ignored);
    * ``max`` / ``min`` / ``mean`` — over samples in ``[t - W, t]``;
    * ``burn_rate`` — the piecewise-constant integral of the signal over
      ``[t - W, t]`` divided by ``W``.  For a 0/1 signal like
      ``degraded`` this is exactly "fraction of the window spent
      degraded", i.e. a degraded-seconds burn rate.
``op`` / ``threshold``
    the comparison: ``>``, ``>=``, ``<``, ``<=``.
``severity``
    ``warning`` or ``violation`` — campaigns and CI can gate on the
    latter (``repro fleet --fail-on-alerts``).

Firing is edge-triggered with hysteresis: a (rule, scope-instance) pair
alerts once when its condition first becomes true and re-arms only after
the condition observes false.  Each alert record carries the triggering
samples, a flight-recorder dump of the last N samples of the relevant
series, and the most recent event that preceded the firing — for a
tenant's alert, the most recent one naming that tenant (its
``tenant_failure``, or the ``domain_failure`` that hit it), if any does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import SimulationError

_OPS = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
}
_REDUCES = ("last", "max", "min", "mean", "burn_rate")
_SEVERITIES = ("warning", "violation")
_SCOPES = ("fleet", "tenant")


def _round9(value: float) -> float:
    out = round(float(value), 9)
    return 0.0 if out == 0 else out


@dataclass(frozen=True)
class AlertRule:
    """One declarative SLO condition (see module docstring for grammar)."""

    name: str
    signal: str
    threshold: float
    op: str = ">"
    scope: str = "fleet"
    reduce: str = "last"
    window_s: float = 0.0
    severity: str = "warning"
    description: str = ""

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise SimulationError(f"unknown op {self.op!r} in rule {self.name!r}")
        if self.reduce not in _REDUCES:
            raise SimulationError(
                f"unknown reduce {self.reduce!r} in rule {self.name!r}"
            )
        if self.severity not in _SEVERITIES:
            raise SimulationError(
                f"unknown severity {self.severity!r} in rule {self.name!r}"
            )
        if self.scope not in _SCOPES:
            raise SimulationError(
                f"unknown scope {self.scope!r} in rule {self.name!r}"
            )
        if self.reduce in ("max", "min", "mean", "burn_rate") and self.window_s <= 0:
            raise SimulationError(
                f"reduce {self.reduce!r} needs window_s > 0 in rule {self.name!r}"
            )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "signal": self.signal,
            "scope": self.scope,
            "reduce": self.reduce,
            "op": self.op,
            "threshold": _round9(self.threshold),
            "window_s": _round9(self.window_s),
            "severity": self.severity,
            **({"description": self.description} if self.description else {}),
        }


def _windowed(buffer, signal: str, t: float, window_s: float):
    """(times, values) inside ``[t - W, t]`` plus the sample just before
    the window edge (its value rules the partial leading segment)."""
    lo = buffer.window(t - window_s)
    times = buffer.times[lo:]
    values = buffer.column(signal)[lo:]
    prev_value = buffer.column(signal)[lo - 1] if lo > 0 else None
    return times, values, prev_value


def _reduce_window(rule: AlertRule, buffer, t: float) -> Optional[float]:
    """Collapse the rule's window of samples to a single value."""
    if signal_missing(buffer, rule.signal):
        return None
    if rule.reduce == "last":
        return buffer.last(rule.signal)
    times, values, prev_value = _windowed(buffer, rule.signal, t, rule.window_s)
    if not times:
        return None
    if rule.reduce == "max":
        return max(values)
    if rule.reduce == "min":
        return min(values)
    if rule.reduce == "mean":
        return sum(values) / len(values)
    # burn_rate: piecewise-constant integral over [t - W, t] / W.
    t_lo = t - rule.window_s
    integral = 0.0
    # Leading partial segment: the value in force *before* the first
    # retained in-window sample.
    lead = prev_value if prev_value is not None else values[0]
    integral += lead * max(0.0, times[0] - t_lo)
    for i in range(len(times) - 1):
        integral += values[i] * (times[i + 1] - times[i])
    integral += values[-1] * max(0.0, t - times[-1])
    return integral / rule.window_s


def signal_missing(buffer, signal: str) -> bool:
    return buffer is None or signal not in buffer.columns or not len(buffer)


class AlertEngine:
    """Evaluates rules at sample points; owns fired-alert records.

    Args:
        rules: the rule set (append more before the run starts).
    """

    #: Flight-recorder length N: the last N samples of the implicated
    #: series are embedded in each alert record.
    recorder_depth = 32
    #: Hard cap on stored alert records (drops counted).
    max_alerts = 256

    def __init__(self, rules=()) -> None:
        self.rules: List[AlertRule] = list(rules)
        self.alerts: List[dict] = []
        self.dropped = 0
        self.evaluations = 0
        self._firing: set = set()

    # -- evaluation ----------------------------------------------------
    def evaluate(self, sampler, t: float, reason: str) -> None:
        """Check every rule against the sampler's buffers at time ``t``."""
        self.evaluations += 1
        for rule in self.rules:
            if rule.scope == "fleet":
                self._check(rule, sampler, sampler.fleet, None, t, reason)
            else:
                for name, series in sampler.tenants.items():
                    if series.closed_at is None:
                        self._check(
                            rule, sampler, series.buffer, name, t, reason
                        )

    def _check(self, rule, sampler, buffer, tenant, t, reason) -> None:
        value = _reduce_window(rule, buffer, t)
        key = (rule.name, tenant)
        if value is None:
            return
        if not _OPS[rule.op](value, rule.threshold):
            self._firing.discard(key)
            return
        if key in self._firing:
            return  # hysteresis: one alert per continuous breach
        self._firing.add(key)
        self._fire(rule, sampler, buffer, tenant, t, reason, value)

    def _fire(self, rule, sampler, buffer, tenant, t, reason, value) -> None:
        if len(self.alerts) >= self.max_alerts:
            self.dropped += 1
            return
        record = {
            "t": _round9(t),
            "rule": rule.name,
            "severity": rule.severity,
            "scope": rule.scope,
            **({"tenant": tenant} if tenant else {}),
            "signal": rule.signal,
            "value": _round9(value),
            "threshold": _round9(rule.threshold),
            "sample_reason": reason,
            "triggering_samples": self._tail(buffer, rule.signal, 4),
            "flight_recorder": self._flight_recorder(buffer),
        }
        correlated = self._correlated_event(sampler, t, tenant)
        if correlated is not None:
            record["correlated_event"] = correlated
        self.alerts.append(record)

    # -- context capture -----------------------------------------------
    def _tail(self, buffer, signal: str, n: int) -> List[dict]:
        times = buffer.times[-n:]
        values = buffer.column(signal)[-n:]
        return [
            {"t": _round9(ts), "value": _round9(v)}
            for ts, v in zip(times, values)
        ]

    def _flight_recorder(self, buffer) -> dict:
        """The last N samples of every column in the implicated series."""
        n = self.recorder_depth
        return {
            "t": [_round9(ts) for ts in buffer.times[-n:]],
            "series": {
                name: [_round9(v) for v in buffer.column(name)[-n:]]
                for name in buffer.columns
            },
        }

    def _correlated_event(self, sampler, t: float, tenant) -> Optional[dict]:
        """The most recent sampler event at or before the firing time;
        for a tenant's alert, the most recent naming the tenant, if any."""
        best = named = None
        for event in sampler.events:
            if event["t"] > t + 1e-12:
                break
            best = event
            if tenant is not None and (
                event.get("tenant") == tenant or tenant in event.get("tenants", ())
            ):
                named = event
        return named or best

    # -- export --------------------------------------------------------
    def violation_count(self) -> int:
        return sum(1 for a in self.alerts if a["severity"] == "violation")

    def to_dict(self) -> dict:
        payload: Dict[str, object] = {
            "rules": [rule.to_dict() for rule in self.rules],
            "evaluations": self.evaluations,
            "fired": self.alerts,
            "counts": {
                "total": len(self.alerts),
                "violation": self.violation_count(),
                "warning": sum(
                    1 for a in self.alerts if a["severity"] == "warning"
                ),
            },
        }
        if self.dropped:
            payload["dropped"] = self.dropped
        return payload


def default_fleet_rules(duration_hours: float = 8.0) -> List[AlertRule]:
    """The stock rule set ``repro fleet --timeline`` evaluates.

    Thresholds are calibrated so a healthy smoke run stays quiet:
    warnings surface pressure (spare waits, admission backlog, degraded
    burn) and the single ``violation`` rule fires only when a tenant
    sits below full redundancy for over an hour — the
    ``time_to_full_redundancy > D`` SLO from the issue.
    """
    window = max(1800.0, duration_hours * 3600.0 / 8.0)
    return [
        AlertRule(
            name="degraded-burn-rate",
            signal="degraded",
            scope="tenant",
            reduce="burn_rate",
            window_s=window,
            op=">",
            threshold=0.5,
            severity="warning",
            description=(
                "tenant spent >50% of the trailing window below full "
                "redundancy (degraded_seconds burn rate)"
            ),
        ),
        AlertRule(
            name="slow-repair",
            signal="degraded_age_s",
            scope="tenant",
            reduce="last",
            op=">",
            threshold=3600.0,
            severity="violation",
            description=(
                "open degraded window older than 1h: repair/spare path "
                "is not keeping up (time_to_full_redundancy SLO)"
            ),
        ),
        AlertRule(
            name="spare-starvation",
            signal="spare_wait_s",
            scope="fleet",
            reduce="last",
            op=">",
            threshold=1800.0,
            severity="warning",
            description="oldest queued spare request waited >30min",
        ),
        AlertRule(
            name="admission-backlog",
            signal="admission_queue",
            scope="fleet",
            reduce="mean",
            window_s=window,
            op=">",
            threshold=16.0,
            severity="warning",
            description="admission queue averaged >16 jobs over the window",
        ),
    ]
