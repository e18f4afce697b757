"""Unit tests for the annealer cost function and adaptive weights."""

import pytest

from repro.core import CostEvaluator, CostTerms, CostWeights, TermAccumulator
from repro.place import clustered_placement
from repro.route import IncrementalRouter, RoutingState
from repro.timing import IncrementalTiming


class TestCostTerms:
    def test_as_tuple(self):
        terms = CostTerms(3, 7, 12.5)
        assert terms.as_tuple() == (3.0, 7.0, 12.5)

    def test_frozen(self):
        terms = CostTerms(1, 2, 3.0)
        with pytest.raises(AttributeError):
            terms.worst_delay = 5.0


class TestCostWeights:
    def test_initial_weights_equal_importance(self):
        weights = CostWeights(2.0, 3.0, 4.0)
        assert (weights.wg, weights.wd, weights.wt) == (2.0, 3.0, 4.0)

    def test_negative_importance_rejected(self):
        with pytest.raises(ValueError):
            CostWeights(importance_global=-1.0)

    def test_scalar_formula(self):
        weights = CostWeights(1.0, 1.0, 1.0)
        assert weights.scalar(CostTerms(2, 3, 4.0)) == pytest.approx(9.0)

    def test_recalibration_normalizes(self):
        weights = CostWeights()
        weights.recalibrate(CostTerms(10, 20, 50.0))
        # After recalibration each term at its mean contributes ~1.
        assert weights.scalar(CostTerms(10, 0, 0.0)) == pytest.approx(1.0)
        assert weights.scalar(CostTerms(0, 20, 0.0)) == pytest.approx(1.0)
        assert weights.scalar(CostTerms(0, 0, 50.0)) == pytest.approx(1.0)

    def test_zero_mean_keeps_floor(self):
        weights = CostWeights()
        weights.recalibrate(CostTerms(0, 0, 0.0))
        # A newly unrouted net after full convergence must still cost.
        assert weights.scalar(CostTerms(1, 1, 0.0)) == pytest.approx(2.0)

    def test_importance_ratio_preserved(self):
        weights = CostWeights(1.0, 1.0, 5.0)
        weights.recalibrate(CostTerms(4, 4, 100.0))
        contribution_g = weights.wg * 4
        contribution_t = weights.wt * 100.0
        assert contribution_t == pytest.approx(5 * contribution_g)


class TestTermAccumulator:
    def test_mean(self):
        acc = TermAccumulator()
        acc.add(CostTerms(2, 4, 10.0))
        acc.add(CostTerms(4, 8, 30.0))
        mean = acc.mean_terms()
        assert mean.global_unrouted == 3
        assert mean.detail_unrouted == 6
        assert mean.worst_delay == pytest.approx(20.0)

    def test_empty(self):
        assert TermAccumulator().mean_terms() == CostTerms(0, 0, 0.0)

    def test_reset(self):
        acc = TermAccumulator()
        acc.add(CostTerms(2, 4, 10.0))
        acc.reset()
        assert acc.count == 0
        assert acc.mean_terms() == CostTerms(0, 0, 0.0)


class TestMeanTermsExactness:
    def test_mean_terms_keeps_fractional_unrouted_counts(self):
        # Regression: int() truncation of the unrouted means silently
        # biased weight recalibration (3 samples averaging 1.67 -> 1).
        acc = TermAccumulator()
        acc.add(CostTerms(1, 2, 1.0))
        acc.add(CostTerms(2, 3, 2.0))
        acc.add(CostTerms(2, 0, 3.0))
        mean = acc.mean_terms()
        assert mean.global_unrouted == pytest.approx(5 / 3)
        assert mean.detail_unrouted == pytest.approx(5 / 3)
        assert mean.worst_delay == pytest.approx(2.0)


class TestCostEvaluator:
    def test_reads_live_state(self, tiny_netlist, tiny_arch, tech, rng):
        placement = clustered_placement(tiny_netlist, tiny_arch.build(), rng)
        state = RoutingState(placement)
        timing = IncrementalTiming(state, tech)
        evaluator = CostEvaluator(state, timing, CostWeights())
        before = evaluator.terms()
        assert before.detail_unrouted == tiny_netlist.num_nets

        IncrementalRouter(state).repair()
        timing.full_update()
        after = evaluator.terms()
        assert after.detail_unrouted < before.detail_unrouted
        assert after.global_unrouted == 0
        assert evaluator.scalar() == pytest.approx(
            CostWeights().scalar(after)
        )
