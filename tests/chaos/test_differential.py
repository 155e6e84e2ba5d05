"""The oracle-vs-engine recovery judge of the campaign kernel.

:mod:`repro.chaos.harness` owns the predict -> restore -> judge dance
every campaign runs.  The pure :func:`judge` table is pinned in every
disagreement direction (replay depth and resume iteration included),
and a real engine closes the loop with the regression the fleet depends
on: a correlated rack loss exceeding ``m`` with no remote backup must be
*predicted* refused, and the engine must actually refuse it.
"""

from __future__ import annotations

import pytest

from repro.chaos.harness import (
    CommitLedger,
    Expectation,
    judge,
    predict,
    recover,
)
from repro.checkpoint.job import TrainingJob
from repro.checkpoint.manager import CheckpointManager
from repro.core.eccheck import ECCheckConfig, ECCheckEngine
from repro.errors import RecoveryError
from repro.parallel.strategy import ParallelismSpec
from repro.parallel.topology import ClusterSpec


def make_engine(seed=7, k=2, m=2):
    job = TrainingJob.create(
        model="gpt2-h1024-L16",
        cluster=ClusterSpec(num_nodes=4, gpus_per_node=2, nodes_per_rack=2),
        strategy=ParallelismSpec(tensor_parallel=2, pipeline_parallel=4),
        scale=5e-5,
        seed=seed,
    )
    engine = ECCheckEngine(job, ECCheckConfig(k=k, m=m, encode_threads=2))
    job.advance()
    engine.save()
    return job, engine


def make_ledger(**kwargs):
    """A managed engine with one committed version, and its ledger."""
    job, engine = make_engine(**kwargs)
    manager = CheckpointManager(job, engine, interval=1)
    job.advance()
    manager.step()
    ledger = CommitLedger(manager)
    ledger.drain()
    return manager, ledger


class TestJudge:
    def test_agreement_is_silent(self):
        exp = Expectation(kind="memory", version=3, failed=(1,))
        assert judge(exp, "memory", 3) == []

    def test_correct_refusal_is_silent(self):
        exp = Expectation(kind="refused", version=None, failed=(0, 1, 2))
        assert judge(exp, "refused") == []

    def test_refusing_recoverable_failure_is_a_violation(self):
        exp = Expectation(kind="memory", version=2, failed=(1,))
        found = judge(exp, "refused", context="tenant-a")
        assert len(found) == 1
        assert "tenant-a" in found[0] and "refused" in found[0]

    def test_recovering_unrecoverable_failure_is_a_violation(self):
        exp = Expectation(kind="refused", version=None, failed=(0, 1, 2))
        found = judge(exp, "memory", 2)
        assert len(found) == 1 and "nothing was recoverable" in found[0]

    def test_wrong_tier_and_wrong_version_are_separate_violations(self):
        exp = Expectation(kind="memory", version=3, failed=(1,))
        found = judge(exp, "backup", 2)
        assert len(found) == 2

    def test_engine_error_is_always_a_violation(self):
        refusing = Expectation(kind="refused", version=None)
        recovering = Expectation(kind="disk", version=1)
        assert len(judge(refusing, "engine_error")) == 1
        assert len(judge(recovering, "engine_error")) == 1

    def test_unknown_outcome_raises(self):
        with pytest.raises(ValueError):
            judge(Expectation(kind="memory", version=1), "teleported")

    def test_replay_depth_is_judged(self):
        exp = Expectation(kind="memory", version=3, replayed=2, resume_iteration=9)
        assert judge(exp, "memory", 3, replayed=2, resumed_at=9) == []
        found = judge(exp, "memory", 3, replayed=1, resumed_at=9)
        assert len(found) == 1 and "replayed 1 log entries" in found[0]

    def test_resume_iteration_is_judged_only_when_both_sides_know_it(self):
        exp = Expectation(kind="disk", version=3, resume_iteration=9)
        found = judge(exp, "disk", 3, resumed_at=7)
        assert len(found) == 1 and "resumed at iteration 7" in found[0]
        assert judge(exp, "disk", 3) == []  # the scenario skips the check
        unknown = Expectation(kind="disk", version=3)
        assert judge(unknown, "disk", 3, resumed_at=7) == []

    def test_replay_fields_do_not_matter_when_nothing_was_restored(self):
        exp = Expectation(kind="memory", version=3, replayed=2, resume_iteration=9)
        assert len(judge(exp, "refused")) == 1
        assert len(judge(exp, "engine_error")) == 1
        refusing = Expectation(kind="refused", version=None)
        assert len(judge(refusing, "backup", 1, replayed=4, resumed_at=2)) == 1


class TestHarness:
    def test_observe_without_predict_raises(self):
        """The oracle has to look before the restore wipes what it reads:
        a recovery without its prediction is refused before it runs."""
        manager, ledger = make_ledger()
        calls = []
        with pytest.raises(ValueError):
            recover(ledger, None, lambda: calls.append("restored"))
        assert calls == []

    def test_predict_observe_cycle_accumulates_violations(self):
        manager, ledger = make_ledger()
        exp = predict(manager.engine, {1})
        assert exp.kind == "memory" and exp.version == manager.engine.version

        def refuse():
            raise RecoveryError("simulated refusal")

        recovery = recover(ledger, exp, refuse)  # wrong: it was recoverable
        assert recovery.outcome == "refused" and recovery.fatal
        assert len(recovery.violations) == 1
        assert "simulated refusal" in recovery.violations[0]

    def test_clean_cycle_leaves_no_violations(self):
        manager, ledger = make_ledger()
        exp = predict(manager.engine, {2})
        recovery = recover(ledger, exp, lambda: manager.on_failure({2}))
        assert recovery.outcome == "memory" and not recovery.fatal
        assert recovery.report.version == exp.version
        assert recovery.violations == []

    def test_unknown_check_name_is_rejected(self):
        manager, ledger = make_ledger()
        with pytest.raises(ValueError):
            recover(
                ledger,
                predict(manager.engine, set()),
                lambda: manager.on_failure(set()),
                skip=("redundency",),
            )


class TestRackLossRegression:
    """Correlated rack loss exceeding ``m`` must be refused — and the
    oracle must predict the refusal, not merely tolerate it.

    A (k=2, m=2) tenant racked entirely inside one failure domain loses
    all four nodes when the rack dies; with no remote backup nothing is
    recoverable.  This is the exact scenario the fleet's domain events
    produce for a tenant whose slots share a rack.
    """

    def test_rack_loss_exceeding_m_predicted_refused(self):
        _, engine = make_engine()
        all_nodes = {0, 1, 2, 3}
        expectation = predict(engine, all_nodes)
        assert expectation.kind == "refused"
        assert expectation.version is None

    def test_engine_agrees_and_harness_stays_clean(self):
        manager, ledger = make_ledger()
        all_nodes = {0, 1, 2, 3}
        recovery = recover(
            ledger,
            predict(manager.engine, all_nodes),
            lambda: manager.on_failure(all_nodes),
        )
        assert recovery.outcome == "refused"
        assert isinstance(recovery.error, RecoveryError)
        assert recovery.violations == []

    def test_loss_within_m_still_recovers(self):
        """Contrast case: losing exactly ``m`` nodes stays recoverable,
        so the refusal above is about the domain size, not a blanket
        refusal."""
        manager, ledger = make_ledger()
        exp = predict(manager.engine, {0, 1})
        assert exp.recoverable
        recovery = recover(ledger, exp, lambda: manager.on_failure({0, 1}))
        assert recovery.outcome == "memory"
        assert recovery.violations == []
