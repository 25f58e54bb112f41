"""Unit tests for the four issue schemes at the scheme-object level."""

import pytest

from repro.common.config import IssueSchemeConfig, default_config
from repro.common.stats import StatCounters
from repro.core.functional_units import PooledFuPool
from repro.core.lsq import LoadStoreQueue
from repro.core.scoreboard import Scoreboard
from repro.core.uop import InFlight
from repro.isa.opcodes import OpClass, latency_table
from repro.issue import build_scheme
from repro.issue.base import IssueContext
from repro.issue.conventional import ConventionalIssueQueue
from repro.issue.issuefifo import IssueFifoScheme
from repro.issue.latfifo import LatFifoScheme
from repro.issue.mixbuff import MixBuffScheme

from tests.util import alu, f, fpalu, r


def make_uop(inst, age=None):
    uop = InFlight(inst, [], None, None, 0, age if age is not None else inst.seq, 0)
    return uop


def make_ctx(config, cycle=0):
    scoreboard = Scoreboard(160, 160, 32, 32)
    ctx = IssueContext(
        cycle,
        config,
        scoreboard,
        PooledFuPool(config.fus),
        LoadStoreQueue(),
        lambda uop, cyc: None,
        latency_table(config.fus),
    )
    return ctx


class TestBuildScheme:
    @pytest.mark.parametrize(
        "kind,cls",
        [
            ("conventional", ConventionalIssueQueue),
            ("issuefifo", IssueFifoScheme),
            ("latfifo", LatFifoScheme),
            ("mixbuff", MixBuffScheme),
        ],
    )
    def test_factory(self, kind, cls):
        scheme_cfg = (
            IssueSchemeConfig(kind=kind)
            if kind == "conventional"
            else IssueSchemeConfig(kind=kind, int_queues=4, fp_queues=4)
        )
        cfg = default_config(scheme_cfg)
        assert isinstance(build_scheme(cfg, StatCounters()), cls)


class TestConventional:
    def make(self, entries=2, unbounded=False):
        cfg = default_config(
            IssueSchemeConfig(
                kind="conventional",
                int_queue_entries=entries,
                fp_queue_entries=entries,
                unbounded=unbounded,
            )
        )
        scheme = ConventionalIssueQueue(cfg, StatCounters())
        scheme.bind_scoreboard(Scoreboard(160, 160, 32, 32))
        return cfg, scheme

    def test_dispatch_stalls_when_full(self):
        __, scheme = self.make(entries=2)
        assert scheme.try_dispatch(make_uop(alu(0, r(1))), 0)
        assert scheme.try_dispatch(make_uop(alu(1, r(2))), 0)
        assert not scheme.try_dispatch(make_uop(alu(2, r(3))), 0)

    def test_sides_have_separate_capacity(self):
        __, scheme = self.make(entries=1)
        assert scheme.try_dispatch(make_uop(alu(0, r(1))), 0)
        assert scheme.try_dispatch(make_uop(fpalu(1, f(1))), 0)
        assert scheme.side_occupancy(False) == 1
        assert scheme.side_occupancy(True) == 1

    def test_unbounded_accepts_rob_worth(self):
        cfg, scheme = self.make(unbounded=True)
        for i in range(cfg.rob_entries):
            assert scheme.try_dispatch(make_uop(alu(i, r(1))), 0)

    def test_out_of_order_issue_skips_unready(self):
        cfg, scheme = self.make(entries=4)
        blocked = make_uop(alu(0, r(1), [r(2)]))
        blocked.src_phys = [(False, 40)]  # never ready
        ready = make_uop(alu(1, r(3)))
        scheme.try_dispatch(blocked, 0)
        scheme.try_dispatch(ready, 0)
        ctx = make_ctx(cfg)
        ctx.scoreboard.mark_pending((False, 40))
        scheme._scoreboard = ctx.scoreboard
        issued = scheme.select_and_issue(ctx)
        assert issued == [ready]

    def test_wakeup_events_count_unready_operands(self):
        cfg, scheme = self.make(entries=4)
        uop = make_uop(alu(0, r(1), [r(2), r(3)]))
        uop.src_phys = [(False, 40), (False, 41)]
        scheme.try_dispatch(uop, 0)
        scheme._scoreboard.mark_pending((False, 40))
        scheme._scoreboard.mark_pending((False, 41))
        scheme.on_result_broadcast(cycle=0, broadcasts=2)
        assert scheme.events.get("iq_wakeup_broadcasts") == 2
        assert scheme.events.get("iq_wakeup_comparisons") == 4  # 2 bc x 2 slots

    def test_no_broadcast_no_events(self):
        __, scheme = self.make()
        scheme.on_result_broadcast(0, 0)
        assert scheme.events.get("iq_wakeup_broadcasts") == 0


class TestIssueFifoScheme:
    def make(self):
        cfg = default_config(
            IssueSchemeConfig(
                kind="issuefifo",
                int_queues=2,
                int_queue_entries=2,
                fp_queues=2,
                fp_queue_entries=2,
            )
        )
        return cfg, IssueFifoScheme(cfg, StatCounters())

    def test_sides_routed_by_op_class(self):
        __, scheme = self.make()
        scheme.try_dispatch(make_uop(alu(0, r(1))), 0)
        scheme.try_dispatch(make_uop(fpalu(1, f(1))), 0)
        assert scheme.int_side.occupancy() == 1
        assert scheme.fp_side.occupancy() == 1

    def test_mispredict_clears_both_tables(self):
        __, scheme = self.make()
        scheme.try_dispatch(make_uop(alu(0, r(1))), 0)
        scheme.try_dispatch(make_uop(fpalu(1, f(1))), 0)
        scheme.on_mispredict_resolved()
        assert scheme.int_side.table.queue_of(r(1)) is None
        assert scheme.fp_side.table.queue_of(f(1)) is None

    def test_regs_ready_write_on_broadcast(self):
        __, scheme = self.make()
        scheme.on_result_broadcast(0, 3)
        assert scheme.events.get("regs_ready_write") == 3


class TestLatFifoScheme:
    def make(self, fp_queues=2, fp_entries=2):
        cfg = default_config(
            IssueSchemeConfig(
                kind="latfifo",
                int_queues=2,
                int_queue_entries=4,
                fp_queues=fp_queues,
                fp_queue_entries=fp_entries,
            )
        )
        return cfg, LatFifoScheme(cfg, StatCounters())

    def test_fp_placement_interleaves_by_estimate(self):
        __, scheme = self.make(fp_queues=1, fp_entries=4)
        slow = make_uop(fpalu(0, f(1), op=OpClass.FP_DIV))  # ready far out
        scheme.try_dispatch(slow, 0)
        fast = make_uop(fpalu(1, f(2), [f(1)], op=OpClass.FP_ALU))
        # fast depends on slow: est issue well after slow's -> same queue.
        assert scheme.try_dispatch(fast, 0)
        assert fast.queue_index == slow.queue_index

    def test_fp_same_cycle_ready_instructions_need_new_queue(self):
        __, scheme = self.make(fp_queues=2, fp_entries=4)
        a = make_uop(fpalu(0, f(1)))
        b = make_uop(fpalu(1, f(2)))  # same estimated issue cycle as a
        scheme.try_dispatch(a, 0)
        scheme.try_dispatch(b, 0)
        assert a.queue_index != b.queue_index

    def test_stalls_when_no_queue_qualifies(self):
        __, scheme = self.make(fp_queues=1, fp_entries=4)
        a = make_uop(fpalu(0, f(1)))
        b = make_uop(fpalu(1, f(2)))
        scheme.try_dispatch(a, 0)
        assert not scheme.try_dispatch(b, 0)  # queue tail has same estimate

    def test_est_issue_recorded(self):
        __, scheme = self.make()
        uop = make_uop(fpalu(0, f(1)))
        scheme.try_dispatch(uop, 5)
        assert uop.est_issue_cycle == 6


class TestMixBuffScheme:
    def make(self, fp_queues=2, fp_entries=4, max_chains=None):
        cfg = default_config(
            IssueSchemeConfig(
                kind="mixbuff",
                int_queues=2,
                int_queue_entries=4,
                fp_queues=fp_queues,
                fp_queue_entries=fp_entries,
                max_chains_per_queue=max_chains,
            )
        )
        return cfg, MixBuffScheme(cfg, StatCounters())

    def test_dependent_fp_ops_share_chain(self):
        __, scheme = self.make()
        a = make_uop(fpalu(0, f(1)))
        b = make_uop(fpalu(1, f(2), [f(1)]))
        scheme.try_dispatch(a, 0)
        scheme.try_dispatch(b, 0)
        assert (a.queue_index, a.chain_id) == (b.queue_index, b.chain_id)

    def test_independent_chains_balance_across_queues(self):
        __, scheme = self.make(fp_queues=2)
        uops = [make_uop(fpalu(i, f(i))) for i in range(4)]
        for uop in uops:
            scheme.try_dispatch(uop, 0)
        # chain 0 of queue 0, chain 0 of queue 1, chain 1 of queue 0, ...
        assert (uops[0].queue_index, uops[0].chain_id) == (0, 0)
        assert (uops[1].queue_index, uops[1].chain_id) == (1, 0)
        assert (uops[2].queue_index, uops[2].chain_id) == (0, 1)
        assert (uops[3].queue_index, uops[3].chain_id) == (1, 1)

    def test_chain_cap_stalls_dispatch(self):
        __, scheme = self.make(fp_queues=1, fp_entries=8, max_chains=2)
        for i in range(2):
            assert scheme.try_dispatch(make_uop(fpalu(i, f(i))), 0)
        assert not scheme.try_dispatch(make_uop(fpalu(2, f(2))), 0)
        assert scheme.fp_side.dispatch_stalls == 1

    def test_one_issue_per_queue_per_cycle(self):
        cfg, scheme = self.make(fp_queues=1, fp_entries=8)
        ready = [make_uop(fpalu(i, f(i))) for i in range(3)]
        for uop in ready:
            scheme.try_dispatch(uop, 0)
            uop.src_phys = []
        ctx = make_ctx(cfg, cycle=5)
        issued = scheme.select_and_issue(ctx)
        fp_issued = [u for u in issued if u.op.is_fp]
        assert len(fp_issued) == 1
        assert fp_issued[0] is ready[0]  # oldest first

    def test_failed_selection_marks_delayed(self):
        cfg, scheme = self.make(fp_queues=1, fp_entries=8)
        blocked = make_uop(fpalu(0, f(1), [f(2)]))
        scheme.try_dispatch(blocked, 0)
        blocked.src_phys = [(True, 40)]
        ctx = make_ctx(cfg, cycle=5)
        ctx.scoreboard.mark_pending((True, 40))
        # Starter operand unscheduled -> chain reads not-ready -> nothing
        # is selected at all (no wasted slot).
        assert scheme.select_and_issue(ctx) == []
        # Once the operand is scheduled but not ready, selection happens
        # and failure marks the entry delayed.
        ctx.scoreboard.set_ready((True, 40), 100)
        ctx2 = make_ctx(cfg, cycle=99)
        ctx2.scoreboard.set_ready((True, 40), 100)
        assert scheme.select_and_issue(ctx2) == []
        assert blocked.delayed

    def test_chain_retired_after_drain(self):
        cfg, scheme = self.make(fp_queues=1, fp_entries=8)
        uop = make_uop(fpalu(0, f(1)))
        scheme.try_dispatch(uop, 0)
        uop.src_phys = []
        ctx = make_ctx(cfg, cycle=5)
        assert scheme.select_and_issue(ctx) == [uop]
        assert scheme.fp_side.live_chains() == 0
        assert scheme.fp_side.table.chain_of(f(1)) is None

    def test_int_side_is_plain_issuefifo(self):
        __, scheme = self.make()
        a = make_uop(alu(0, r(1)))
        scheme.try_dispatch(a, 0)
        assert scheme.int_side.occupancy() == 1
        assert a.chain_id is None
