"""Pluggable checkpoint-engine registry.

Every cross-cutting layer (chaos campaigns, the obs runner, the CLI)
used to hard-code its own ``if engine_name == ...`` ladder; the registry
makes engines selectable *by name* in one place, so a new engine (ECRM
sparse workloads, future designs) plugs in with one ``register_engine``
call instead of edits in five files.

Builders take ``(job, config, **kwargs)`` where ``config`` is an
:class:`~repro.core.eccheck.ECCheckConfig` (or ``None`` for defaults) —
non-EC engines ignore the coding fields but honour shared knobs where
they apply.  ``ECCheckConfig.engine`` names the engine, so
:func:`build_engine_from_config` is the one-argument path the CLI uses.

Builders import their engine lazily: the registry lives in ``core`` but
must not drag ``checkpoint``/``gradrep`` imports into every ``core``
consumer (and import cycles lurk — ``gradrep`` itself imports ``core``).

A name says which engine; what the engine can do beyond ``save`` /
``restore`` is its type.  The optional capabilities are the structural
protocols in :mod:`repro.checkpoint.base` — ``SupportsRemoteBackup``
(eccheck, hybrid), ``SupportsReplication`` (gradrep, hybrid) and
``SupportsTiers`` (eccheck) — which callers check once, where they take
the engine; elastic membership needs an ``ECCheckEngine`` itself.  The
chaos oracle keys its rules by name (``repro.chaos.invariants._RULES``),
so a new engine registered here also needs an oracle rule before a
campaign can judge it.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import CheckpointError

_BUILDERS: dict[str, Callable] = {}


def register_engine(name: str, builder: Callable) -> None:
    """Register ``builder(job, config, **kwargs) -> CheckpointEngine``.

    Raises:
        CheckpointError: on a duplicate name (engines are identities —
            silently replacing one would corrupt differential results).
    """
    if name in _BUILDERS:
        raise CheckpointError(f"engine {name!r} is already registered")
    _BUILDERS[name] = builder


def engine_names() -> tuple[str, ...]:
    """All registered engine names, in registration order."""
    return tuple(_BUILDERS)


def build_engine(name: str, job, config=None, **kwargs):
    """Instantiate the engine registered under ``name`` for ``job``.

    Raises:
        CheckpointError: for an unknown name.
    """
    builder = _BUILDERS.get(name)
    if builder is None:
        raise CheckpointError(
            f"unknown engine {name!r}; registered: {', '.join(_BUILDERS)}"
        )
    return builder(job, config, **kwargs)


def build_engine_from_config(job, config, **kwargs):
    """Build the engine ``config.engine`` names (the CLI path)."""
    name = config.engine if config is not None else "eccheck"
    return build_engine(name, job, config, **kwargs)


# ---------------------------------------------------------------------------
# Built-in engines.
# ---------------------------------------------------------------------------
def _build_eccheck(job, config, **kwargs):
    from repro.core.eccheck import ECCheckEngine

    return ECCheckEngine(job, config)


def _build_base1(job, config, **kwargs):
    from repro.checkpoint.sync_remote import SyncRemoteEngine

    return SyncRemoteEngine(job)


def _build_base2(job, config, **kwargs):
    from repro.checkpoint.two_phase import TwoPhaseEngine

    return TwoPhaseEngine(job)


def _build_base3(job, config, **kwargs):
    from repro.checkpoint.replication import GeminiReplicationEngine

    return GeminiReplicationEngine(
        job, group_size=kwargs.get("group_size", 2)
    )


def _build_gradrep(job, config, **kwargs):
    from repro.gradrep import GradRepEngine

    return GradRepEngine(job, kwargs.get("gradrep_config"))


def _build_hybrid(job, config, **kwargs):
    from repro.gradrep import HybridEngine

    return HybridEngine(job, config, kwargs.get("gradrep_config"))


register_engine("eccheck", _build_eccheck)
register_engine("base1", _build_base1)
register_engine("base2", _build_base2)
register_engine("base3", _build_base3)
register_engine("gradrep", _build_gradrep)
register_engine("hybrid", _build_hybrid)
