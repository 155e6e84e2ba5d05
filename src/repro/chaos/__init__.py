"""Chaos engineering for the checkpoint engines.

Fault-injection campaigns that drive randomized end-to-end
save -> crash -> restore -> resume cycles against every engine and assert
recovery invariants after each round: restored ``state_dict``s bit-identical
to the checkpointed ones, torn versions rolled back (never restored), full
redundancy re-established, and lost-work accounting consistent.

* :mod:`repro.chaos.injection` — crash points and the injector engines
  consult mid-save, leaving genuine torn versions behind.
* :mod:`repro.chaos.invariants` — recoverability oracles and post-recovery
  checks, implemented independently of the engines' own recovery logic so
  a bug in one side is caught by the other.
* :mod:`repro.chaos.harness` — the campaign kernel every scenario runs
  on: episode record and report serializer, testbed builder, telemetry
  wrapper, commit ledger, crash/corruption injection helpers and the one
  recovery judge (DESIGN.md, "Campaign harness").
* :mod:`repro.chaos.campaign` — the generic scenario (the ``repro chaos``
  CLI command); :mod:`~repro.chaos.tier_campaign`,
  :mod:`~repro.chaos.elastic_campaign` and
  :mod:`~repro.chaos.hybrid_campaign` script the tier-loss, elastic and
  replay-aware scenarios on the same kernel, and
  :mod:`repro.fleet.campaign` the multi-tenant one.
"""

from repro.chaos.campaign import (
    ChaosConfig,
    CampaignReport,
    EpisodeResult,
    run_campaign,
    run_episode,
)
from repro.chaos.injection import (
    CrashInjector,
    CrashPlan,
    InjectedCrash,
)

__all__ = [
    "CampaignReport",
    "ChaosConfig",
    "CrashInjector",
    "CrashPlan",
    "EpisodeResult",
    "InjectedCrash",
    "run_campaign",
    "run_episode",
]
