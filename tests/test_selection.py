import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedmesh.selection import (
    FLAG_INCONSISTENT,
    FLAG_SCORE_OUTLIER,
    NonFiniteMetric,
    ScoreWeights,
    SelectionConfig,
    consistency_check,
    estimate_metrics,
    grid_search_init,
    score,
    select_clients,
    simplex_grid,
    update_weights,
)
from fedmesh.trainer import AdversaryAssignment, ClientReports, TrainerConfig, build_report


def honest_report(client_id, trained_values, edge_model, sample_count=50, security=0.5, behavior=None, rng=None):
    """One client's report, as a one-row ClientReports; `behavior` is an adversary's (kind, factor)."""
    return build_report(
        [client_id], np.asarray(trained_values, dtype=float)[None], edge_model, TrainerConfig(), [sample_count],
        [security], [AdversaryAssignment(client_id, *behavior)] if behavior else (), lambda cid: rng,
    )


def stacked(reports):
    """One edge's reports from one-client reports, rows in the given order."""
    return ClientReports(
        *(np.concatenate([getattr(r, f.name) for r in reports]) for f in dataclasses.fields(ClientReports))
    )


def select(reports, edge, weights, config):
    return select_clients(stacked(reports), edge, weights, config, TrainerConfig())


class TestEstimateMetrics:
    def test_identity_utility(self):
        edge = np.ones(11)
        report = honest_report(0, np.ones(11), edge)
        u, _ = estimate_metrics(report, edge, TrainerConfig())
        assert u.tolist() == [0.0]

    def test_energy_substitution(self):
        edge = np.zeros(11)
        report = honest_report(0, np.zeros(11), edge, sample_count=200)
        _, e = estimate_metrics(report, edge, TrainerConfig(energy_alpha=0.01, energy_beta=0.001))
        assert e[0] == pytest.approx(2.011, abs=1e-12)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            w_client = rng.normal(size=11)
            w_edge = rng.normal(size=11)
            report = honest_report(0, w_client, w_edge)
            u, _ = estimate_metrics(report, w_edge, TrainerConfig())
            expected = sum(abs(w_client[k] - w_edge[k]) for k in range(11))
            assert u[0] == pytest.approx(expected, abs=1e-9)


class TestConsistencyCheck:
    def test_agreement_is_zero(self):
        assert consistency_check(3.7, 3.7) == 0.0

    @pytest.mark.parametrize("reported,estimated,expected", [(1.0, 0.0, 0.5), (3.0, 1.0, 0.25)])
    def test_substitution(self, reported, estimated, expected):
        assert consistency_check(reported, estimated) == pytest.approx(expected, abs=1e-12)

    @given(st.floats(0, 1e9), st.floats(0, 1e9))
    @settings(max_examples=200, deadline=None)
    def test_bounded_and_zero_iff_equal(self, x, y):
        delta = consistency_check(x, y)
        assert 0.0 <= delta < 1.0
        if x == y:
            assert delta == 0.0
        if delta == 0.0:
            assert x == y

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            consistency_check(-0.1, 0.0)


class TestScore:
    def test_substitution(self):
        assert score((2.0, 1.0, 1.0), ScoreWeights(0.5, 0.3, 0.2)) == pytest.approx(0.9, abs=1e-12)

    def test_zero_case(self):
        assert score((0.0, 0.0, 0.0), ScoreWeights(0.2, 0.3, 0.5)) == 0.0

    def test_equal_weights(self):
        w = ScoreWeights(1 / 3, 1 / 3, 1 / 3)
        assert score((3.0, 1.0, 0.5), w) == pytest.approx(2.5 / 3, abs=1e-12)

    def test_simplex_enforced(self):
        with pytest.raises(ValueError):
            ScoreWeights(0.5, 0.5, 0.5)


class TestSimplexGrid:
    def test_half_step_lattice(self):
        pts = {w.as_tuple() for w in simplex_grid(SelectionConfig(grid_step=0.5))}
        assert pts == {
            (0.0, 0.0, 1.0), (0.0, 0.5, 0.5), (0.0, 1.0, 0.0),
            (0.5, 0.0, 0.5), (0.5, 0.5, 0.0), (1.0, 0.0, 0.0),
        }

    def test_tenth_step_count(self):
        assert len(simplex_grid(SelectionConfig(grid_step=0.1))) == 66  # C(12, 2)

    def test_uneven_step_rejected(self):
        # the config that simplex_grid takes refuses a step that is not 1/m for a whole m >= 1;
        # 1 / 1e12 lies within the divisibility tolerance of m = 0, an empty lattice
        for grid_step in (0.3, 1e12, 2.0, 0.0, -0.5, math.nan):
            with pytest.raises(ValueError, match="grid_step"):
                SelectionConfig(grid_step=grid_step)


def grid_search_oracle(evaluations, config):
    """One candidate at a time in lexicographic order; a strictly larger objective replaces the best."""
    u, e, s = np.asarray(evaluations, dtype=np.float64).reshape(-1, 3).T
    best, best_objective = None, -math.inf
    for candidate in simplex_grid(config):
        scores = score((u, e, s), candidate)
        objective = float(scores.mean() - scores.std())
        if objective > best_objective:
            best, best_objective = candidate, objective
    return best


class TestGridSearchInit:
    @given(
        st.lists(st.tuples(*[st.floats(-10, 10)] * 3), min_size=1, max_size=39),
        st.sampled_from([1.0, 1e150, 1e299]),  # the larger scales overflow some scores' spreads
        st.lists(st.tuples(*[st.floats()] * 3), max_size=1),  # any float, nan and +-inf included
        st.integers(1, 10),
    )
    @example([(1.0, -1.0, 1.0), (-1.0, 1.0, -1.0)], 1e308, [], 2)  # every objective overflows
    @example([(1.0, 1.0, 1.0)] * 3, 1.0, [], 4)  # every candidate ties
    @settings(max_examples=300, deadline=None)
    def test_matches_candidate_loop(self, evaluations, scale, extra, m):
        evaluations = [tuple(scale * v for v in t) for t in evaluations] + extra
        config = SelectionConfig(grid_step=1 / m)
        with np.errstate(all="ignore"):
            want = grid_search_oracle(evaluations, config)
            if want is None:
                with pytest.raises(ValueError, match="no score weights give a finite objective"):
                    grid_search_init(evaluations, config)
                return
            assert grid_search_init(evaluations, config) == want

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            evals = [tuple(rng.uniform(0, 3, size=3)) for _ in range(6)]
            got = grid_search_init(evals, SelectionConfig(grid_step=0.25))
            best, best_obj = None, -np.inf
            m = 4
            for i in range(m + 1):  # lexicographic enumeration, first strict max wins
                for j in range(m - i + 1):
                    cand = (i / m, j / m, (m - i - j) / m)
                    scores = [cand[0] * u - cand[1] * e + cand[2] * s for u, e, s in evals]
                    obj = float(np.mean(scores) - np.std(scores))
                    if obj > best_obj:
                        best, best_obj = cand, obj
            assert got.as_tuple() == best

    def test_single_client_prefers_max_mean(self):
        # one client: std is 0, objective is the score itself
        got = grid_search_init([(5.0, 0.1, 0.5)], SelectionConfig(grid_step=0.5))
        assert got.as_tuple() == (1.0, 0.0, 0.0)

    def test_tie_break_lexicographic(self):
        # all-equal metrics make many candidates tie; smallest (w1, w2, w3) wins
        got = grid_search_init([(1.0, 1.0, 1.0)], SelectionConfig(grid_step=0.5))
        assert got.as_tuple() == (0.0, 0.0, 1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            grid_search_init([], SelectionConfig(grid_step=0.5))

    def test_no_finite_objective_is_an_error(self):
        # every candidate scores the two clients +-1e308, whose spread overflows: no weights can be chosen
        half_step = SelectionConfig(grid_step=0.5)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="no score weights give a finite objective"):
                grid_search_init([(1e308, -1e308, 1e308), (-1e308, 1e308, -1e308)], half_step)
            with pytest.raises(ValueError, match="no score weights give a finite objective"):
                grid_search_init([(math.inf, 0.0, 0.5)], half_step)


class TestUpdateWeights:
    def test_eta_zero_keeps_prev(self):
        prev = ScoreWeights(0.2, 0.3, 0.5)
        assert update_weights(prev, (5.0, 1.0, 2.0), SelectionConfig(eta=0.0)) == prev

    def test_eta_one_normalizes_means(self):
        out = update_weights(ScoreWeights(0.2, 0.3, 0.5), (2.0, 1.0, 1.0), SelectionConfig(eta=1.0))
        assert out.as_tuple() == pytest.approx((0.5, 0.25, 0.25), abs=1e-12)

    def test_half_step_substitution(self):
        out = update_weights(ScoreWeights(1 / 3, 1 / 3, 1 / 3), (2.0, 1.0, 1.0), SelectionConfig(eta=0.5))
        assert out.as_tuple() == pytest.approx((5 / 12, 7 / 24, 7 / 24), abs=1e-12)

    @pytest.mark.parametrize("eta", [-0.1, 1.5, math.nan])
    def test_eta_outside_unit_interval_rejected(self, eta):
        # the config that update_weights takes refuses the rate
        with pytest.raises(ValueError, match="eta"):
            SelectionConfig(eta=eta)

    def test_all_zero_means_returns_prev(self, caplog):
        prev = ScoreWeights(0.2, 0.3, 0.5)
        with caplog.at_level("WARNING"):
            assert update_weights(prev, (0.0, 0.0, 0.0), SelectionConfig(eta=0.5)) == prev
        assert any("all-zero" in r.message for r in caplog.records)

    @given(
        st.tuples(st.floats(0, 1), st.floats(0, 1)).filter(lambda t: t[0] + t[1] <= 1.0),
        st.tuples(st.floats(0, 1e6), st.floats(0, 1e6), st.floats(0, 1e6)).filter(lambda t: sum(t) > 0),
        st.floats(0, 1),
    )
    @example((0.0, 0.0), (0.0, 0.0, 5e-324), 0.5)  # a subnormal mean once underflowed to weight 0
    @settings(max_examples=300, deadline=None)
    def test_simplex_preserved(self, prev_pair, means, eta):
        w1, w2 = prev_pair
        prev = ScoreWeights(w1, w2, max(0.0, 1.0 - w1 - w2))
        out = update_weights(prev, means, SelectionConfig(eta=eta))
        assert abs(sum(out.as_tuple()) - 1.0) <= 1e-9


class TestSelectClients:
    def config(self, **kw):
        defaults = dict(capacity_k=50, consistency_threshold=0.15, outlier_z_threshold=2.5)
        defaults.update(kw)
        return SelectionConfig(**defaults)

    def weights(self):
        return ScoreWeights(0.4, 0.3, 0.3)

    def test_all_honest_all_selected(self):
        edge = np.zeros(11)
        rng = np.random.default_rng(0)
        reports = [honest_report(c, rng.normal(size=11), edge) for c in range(3)]
        selected, evals = select(reports, edge, self.weights(), self.config(capacity_k=3))
        assert sorted(selected) == [0, 1, 2]
        assert all(not ev.flags for ev in evals)

    def test_metric_liar_flagged_and_excluded(self):
        edge = np.zeros(11)
        rng = np.random.default_rng(1)
        reports = [honest_report(c, 0.1 * rng.normal(size=11), edge) for c in range(5)]
        liar = honest_report(
            5, 0.1 * rng.normal(size=11), edge, behavior=("inflate_utility", 10.0)
        )
        # sanity: a 10x lie at this utility level exceeds the 0.15 threshold
        honest_u = sum(abs(x) for x in liar.weights[0] - edge)
        assert consistency_check(10 * honest_u, honest_u) > 0.15
        selected, evals = select(reports + [liar], edge, self.weights(), self.config())
        flagged = [ev.client for ev in evals if FLAG_INCONSISTENT in ev.flags]
        assert flagged == [5]
        assert 5 not in selected
        assert sorted(selected) == [0, 1, 2, 3, 4]

    def test_inflation_detection_window(self):
        # Delta = u(f-1)/((1+fu)(1+u)) peaks at u = 1/sqrt(f) and fades for
        # huge utilities, so detection needs the honest utility in a window
        f = 5.0
        for u in (0.1, 0.5, 1.0, 3.0):
            assert consistency_check(f * u, u) > 0.15
        assert consistency_check(f * 50.0, 50.0) < 0.15  # saturated blind spot

    def test_score_outlier_flagged(self):
        # utilities 1.0 x9 and 100.0; with weights (1,0,0) the score is the utility
        edge = np.zeros(2)
        reports = [honest_report(c, [1.0, 0.0], edge) for c in range(9)]
        reports.append(honest_report(9, [100.0, 0.0], edge))
        selected, evals = select(
            reports, edge, ScoreWeights(1.0, 0.0, 0.0), self.config(outlier_z_threshold=2.5)
        )
        outliers = [ev.client for ev in evals if FLAG_SCORE_OUTLIER in ev.flags]
        assert outliers == [9]
        assert 9 not in selected
        assert len(selected) == 9

    def test_outlier_step_runs_at_a_pool_of_four(self):
        # population std: the z of 50 among [1, 1, 1, 50] is sqrt(3), the most any of 4 scores can reach
        edge = np.zeros(2)
        reports = [honest_report(c, [v, 0.0], edge) for c, v in enumerate([1.0, 1.0, 1.0, 50.0])]
        selected, evals = select(reports, edge, ScoreWeights(1.0, 0.0, 0.0), self.config(outlier_z_threshold=1.5))
        assert [ev.client for ev in evals if FLAG_SCORE_OUTLIER in ev.flags] == [3]
        assert sorted(selected) == [0, 1, 2]

    def test_outlier_needs_a_z_above_the_threshold(self):
        # population std: the z of 5 among [1, 1, 1, 1, 5] is exactly 3.2 / 1.6 = 2
        edge = np.zeros(2)
        reports = [honest_report(c, [v, 0.0], edge) for c, v in enumerate([1.0, 1.0, 1.0, 1.0, 5.0])]
        for threshold, flagged in ((2.0, []), (np.nextafter(2.0, 0), [4])):
            _, evals = select(reports, edge, ScoreWeights(1.0, 0.0, 0.0), self.config(outlier_z_threshold=threshold))
            assert [ev.client for ev in evals if FLAG_SCORE_OUTLIER in ev.flags] == flagged

    def test_outlier_step_skipped_for_tiny_pools(self):
        edge = np.zeros(2)
        reports = [honest_report(c, [v, 0.0], edge) for c, v in enumerate([1.0, 1.0, 50.0])]
        selected, evals = select(reports, edge, ScoreWeights(1.0, 0.0, 0.0), self.config())
        assert sorted(selected) == [0, 1, 2]
        assert all(not ev.flags for ev in evals)

    def test_capacity_limits_and_ranking(self):
        edge = np.zeros(2)
        utilities = [0.5, 2.0, 1.0, 3.0]
        reports = [honest_report(c, [u, 0.0], edge) for c, u in enumerate(utilities)]
        selected, _ = select(reports, edge, ScoreWeights(1.0, 0.0, 0.0), self.config(capacity_k=2))
        assert selected == [3, 1]  # by score descending

    def test_tie_broken_by_client_id(self):
        edge = np.zeros(2)
        reports = [honest_report(c, [1.5, 0.0], edge) for c in (4, 2, 7)]
        selected, _ = select(reports, edge, ScoreWeights(1.0, 0.0, 0.0), self.config(capacity_k=2))
        assert selected == [2, 4]

    def test_monotone_in_utility(self):
        edge = np.zeros(2)
        rng = np.random.default_rng(7)
        base = [float(u) for u in rng.uniform(0.5, 2.0, size=6)]
        cfg = self.config(capacity_k=3)
        w = ScoreWeights(0.6, 0.2, 0.2)
        target = 2
        selected_before, _ = select(
            [honest_report(c, [u, 0.0], edge) for c, u in enumerate(base)], edge, w, cfg
        )
        if target not in selected_before:
            base[target] = max(base) + 0.1  # promote it into the selection first
            selected_before, _ = select(
                [honest_report(c, [u, 0.0], edge) for c, u in enumerate(base)], edge, w, cfg
            )
        assert target in selected_before
        base[target] += 0.5
        selected_after, _ = select(
            [honest_report(c, [u, 0.0], edge) for c, u in enumerate(base)], edge, w, cfg
        )
        assert target in selected_after

    def test_honest_clients_have_zero_deltas(self):
        edge = np.random.default_rng(3).normal(size=11)
        rng = np.random.default_rng(4)
        reports = [honest_report(c, rng.normal(size=11), edge) for c in range(8)]
        _, evals = select(reports, edge, self.weights(), self.config())
        for ev in evals:
            assert ev.delta_u == 0.0
            assert ev.delta_e == 0.0
            assert FLAG_INCONSISTENT not in ev.flags

    def test_negative_scores_still_eligible(self):
        # heavy energy weight drives scores negative; clients rank last but stay in
        edge = np.zeros(2)
        reports = [honest_report(c, [0.1, 0.0], edge, sample_count=1000) for c in range(2)]
        selected, evals = select(reports, edge, ScoreWeights(0.0, 1.0, 0.0), self.config())
        assert all(ev.score < 0 for ev in evals)
        assert sorted(selected) == [0, 1]

    def test_deterministic(self):
        edge = np.zeros(11)
        rng = np.random.default_rng(11)
        reports = [honest_report(c, rng.normal(size=11), edge) for c in range(10)]
        first = select(reports, edge, self.weights(), self.config(capacity_k=4))
        second = select(list(reversed(reports)), edge, self.weights(), self.config(capacity_k=4))
        assert first[0] == second[0]

    def test_non_finite_metrics_name_the_client(self):
        edge = np.zeros(2)
        cases = [
            # one client's utility overflows by itself
            ([[1.0, 0.0], [1e308, -1e308], [2.0, 0.0]], [None] * 3, "client 1: estimated utility inf is not finite"),
            # each utility is finite; the second takes the edge's total past the float range
            ([[1.0, 0.0], [1e308, 0.0], [1e308, 0.0]], [None] * 3,
             "client 2: estimated utility 1e+308 makes the edge's total estimated utility overflow"),
            # a report inflated past the float range
            ([[1.0, 0.0], [1e300, 0.0]], [None, ("inflate_utility", 1e10)],
             "client 1: reported utility inf is not finite"),
        ]
        for rows, behaviors, message in cases:
            with np.errstate(over="ignore"):
                reports = stacked(
                    [honest_report(c, row, edge, behavior=b) for c, (row, b) in enumerate(zip(rows, behaviors))]
                )
                with pytest.raises(NonFiniteMetric, match=f"^{re.escape(message)}$") as info:
                    select_clients(reports, edge, self.weights(), self.config(), TrainerConfig())
            assert info.value.client_id == int(message.split(":")[0].split()[1])

    def test_empty_reports_rejected(self):
        none = np.zeros(0, dtype=np.int64)
        empty = ClientReports(none, np.zeros((0, 2)), np.zeros(0), np.zeros(0), np.zeros(0), none)
        with pytest.raises(ValueError, match="at least one report"):
            select_clients(empty, np.zeros(2), self.weights(), self.config(), TrainerConfig())
