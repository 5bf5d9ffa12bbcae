"""The four TMEDB feasibility conditions (Section IV)."""

import pytest

from repro.schedule import Schedule, Transmission, check_feasibility


def _w(tveg, u, v, t):
    return tveg.min_cost(u, v, t)


def full_schedule(tveg):
    """A hand-built feasible broadcast on the deterministic trace: 0→{1,3}
    then 1→2 (0 covers 3 directly during their [10,25) contact)."""
    return Schedule(
        [
            Transmission(0, 15.0, max(_w(tveg, 0, 1, 15.0), _w(tveg, 0, 3, 15.0))),
            Transmission(1, 25.0, _w(tveg, 1, 2, 25.0)),
        ]
    )


class TestConditions:
    def test_feasible_schedule(self, det_static):
        rep = check_feasibility(det_static, full_schedule(det_static), 0, 100.0)
        assert rep.feasible
        assert rep.violations == ()
        times = dict(rep.informed_times)
        assert times[0] == 0.0 and times[1] == 15.0 and times[2] == 25.0

    def test_condition_i_uninformed_relay(self, det_static):
        # relay 1 transmits before anyone informed it
        sched = Schedule([Transmission(1, 25.0, _w(det_static, 1, 2, 25.0))])
        rep = check_feasibility(det_static, sched, 0, 100.0)
        assert not rep.relays_informed
        assert any("relay" in v for v in rep.violations)

    def test_condition_ii_node_never_informed(self, det_static):
        sched = Schedule([Transmission(0, 15.0, _w(det_static, 0, 1, 15.0))])
        rep = check_feasibility(det_static, sched, 0, 100.0)
        assert not rep.all_informed
        assert not rep.feasible

    def test_condition_iii_latency(self, det_static):
        rep = check_feasibility(det_static, full_schedule(det_static), 0, 20.0)
        assert not rep.latency_ok  # transmission at 25 > deadline 20

    def test_condition_iv_budget(self, det_static):
        sched = full_schedule(det_static)
        ok = check_feasibility(det_static, sched, 0, 100.0, budget=sched.total_cost)
        tight = check_feasibility(
            det_static, sched, 0, 100.0, budget=sched.total_cost * 0.99
        )
        assert ok.budget_ok
        assert not tight.budget_ok
        assert not tight.feasible

    def test_no_budget_means_ok(self, det_static):
        rep = check_feasibility(det_static, full_schedule(det_static), 0, 100.0)
        assert rep.budget_ok

    def test_empty_schedule_single_node(self, det_static):
        # only the source itself informed → conditions (i), (iii), (iv) hold
        rep = check_feasibility(det_static, Schedule.empty(), 0, 100.0)
        assert rep.relays_informed and rep.latency_ok and rep.budget_ok
        assert not rep.all_informed

    def test_tau_tightens_deadline(self, det_trace):
        from repro.tveg import tveg_from_trace

        tveg = tveg_from_trace(det_trace, "static", tau=2.0, seed=1)
        # same structure but τ = 2: latency bound uses max t_k + τ
        sched = Schedule(
            [
                Transmission(
                    0, 15.0, max(tveg.min_cost(0, 1, 15.0), tveg.min_cost(0, 3, 15.0))
                ),
                Transmission(1, 25.0, tveg.min_cost(1, 2, 25.0)),
            ]
        )
        rep = check_feasibility(tveg, sched, 0, 26.0)
        assert not rep.latency_ok  # 25 + 2 > 26

    def test_custom_eps(self, det_fading):
        # with ε = 0.999 even a feeble transmission informs
        w = 0.05 * _w(det_fading, 0, 1, 15.0)
        sched = Schedule(
            [
                Transmission(0, 15.0, w),
                Transmission(0, 16.0, 0.05 * _w(det_fading, 0, 3, 16.0)),
                Transmission(1, 25.0, 0.05 * _w(det_fading, 1, 2, 25.0)),
            ]
        )
        loose = check_feasibility(det_fading, sched, 0, 100.0, eps=0.999)
        strict = check_feasibility(det_fading, sched, 0, 100.0, eps=1e-6)
        assert loose.feasible
        assert not strict.feasible


class TestReplayKernelParity:
    """The causal replay's report does not depend on the TVEG's caches:
    the same report and informed times with warm caches and after
    ``tveg.clear_caches()``."""

    def _both(self, tveg, sched, source, deadline, **kw):
        check_feasibility(tveg, sched, source, deadline, **kw)
        warm = check_feasibility(tveg, sched, source, deadline, **kw)
        tveg.clear_caches()
        cold = check_feasibility(tveg, sched, source, deadline, **kw)
        return warm, cold

    def _assert_equal(self, a, b):
        assert a.feasible == b.feasible
        assert a.violations == b.violations
        assert repr(a.informed_times) == repr(b.informed_times)
        assert (a.relays_informed, a.all_informed, a.latency_ok,
                a.budget_ok) == (b.relays_informed, b.all_informed,
                                 b.latency_ok, b.budget_ok)

    def test_feasible_schedule(self, det_static):
        a, b = self._both(det_static, full_schedule(det_static), 0, 100.0)
        self._assert_equal(a, b)
        assert a.feasible

    def test_infeasible_and_unfired(self, det_static):
        sched = Schedule([Transmission(1, 25.0, _w(det_static, 1, 2, 25.0))])
        a, b = self._both(det_static, sched, 0, 100.0)
        self._assert_equal(a, b)
        assert not a.relays_informed

    def test_same_instant_chain(self, det_static):
        # 0 and 1 both fire at t=20: 1 is informed by 0's same-instant
        # transmission, so the fixpoint fires both — warm or cold.
        sched = Schedule([
            Transmission(0, 20.0, _w(det_static, 0, 1, 20.0)),
            Transmission(1, 20.0, _w(det_static, 1, 2, 20.0)),
            Transmission(0, 15.0, _w(det_static, 0, 3, 15.0)),
        ])
        a, b = self._both(det_static, sched, 0, 100.0)
        self._assert_equal(a, b)

    def test_fading_probabilities(self, det_fading):
        # fractional failure factors: partial informing multiplies the
        # failure probabilities of several transmissions per receiver
        sched = Schedule([
            Transmission(0, 15.0, 0.4 * _w(det_fading, 0, 1, 15.0)),
            Transmission(0, 16.0, 0.4 * _w(det_fading, 0, 1, 16.0)),
            Transmission(0, 17.0, 0.4 * _w(det_fading, 0, 3, 17.0)),
            Transmission(1, 25.0, 0.4 * _w(det_fading, 1, 2, 25.0)),
        ])
        for eps in (1e-6, 0.2, 0.999):
            a, b = self._both(det_fading, sched, 0, 100.0, eps=eps)
            self._assert_equal(a, b)

    def test_scheduler_reduce_parity_across_kernels(self):
        # full pipeline: an EEDCB run on either pinned kernel (aux build,
        # Steiner search) reduces to the identical schedule
        from repro.algorithms import make_scheduler
        from repro.tveg import tveg_from_trace
        from repro.traces import HaggleLikeConfig, haggle_like_trace

        trace = haggle_like_trace(HaggleLikeConfig(num_nodes=10), seed=4)
        window = trace.restrict_window(8000.0, 11000.0).shift(-8000.0)
        results = {}
        for compute in ("python", "numpy"):
            tveg = tveg_from_trace(window, "static", seed=4)
            r = make_scheduler("eedcb", compute=compute).run(tveg, 0, 2500.0)
            results[compute] = r
        assert results["python"].schedule == results["numpy"].schedule
        assert repr(results["python"].schedule.total_cost) == \
            repr(results["numpy"].schedule.total_cost)
