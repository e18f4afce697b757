"""Per-temperature activity traces — the data behind the paper's Figure 6.

The paper plots, per temperature: the fraction of cells perturbed, the
fraction of nets globally unrouted, and the fraction of nets unrouted
(globally-routed-but-detail-unrouted is the gap between the last two).
The expected shape is the signature of *simultaneous* layout: placement
activity starts aggressive and decays; global unroutability collapses by
mid-anneal; detail unroutability humps while placement churn frees and
takes segments, then converges to zero.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field


@dataclass(frozen=True)
class TemperatureSample:
    """Activity summary for one annealing temperature."""

    temperature: float
    attempts: int
    accepted: int
    cells_perturbed_frac: float
    global_unrouted_frac: float
    unrouted_frac: float
    worst_delay: float
    mean_cost: float

    @property
    def acceptance(self) -> float:
        """Accepted / attempted move ratio."""
        return self.accepted / self.attempts if self.attempts else 0.0

    @property
    def detail_only_unrouted_frac(self) -> float:
        """Globally routed but detail-unrouted (the Figure-6 gap)."""
        return max(0.0, self.unrouted_frac - self.global_unrouted_frac)

    def as_dict(self) -> dict[str, float]:
        """Fields plus derived acceptance, for trace ``stage`` events."""
        return {
            "temperature": self.temperature,
            "attempts": self.attempts,
            "accepted": self.accepted,
            "acceptance": self.acceptance,
            "cells_perturbed_frac": self.cells_perturbed_frac,
            "global_unrouted_frac": self.global_unrouted_frac,
            "unrouted_frac": self.unrouted_frac,
            "worst_delay": self.worst_delay,
            "mean_cost": self.mean_cost,
        }


@dataclass
class DynamicsTrace:
    """The full per-temperature history of one annealing run."""

    samples: list[TemperatureSample] = field(default_factory=list)

    def record(self, sample: TemperatureSample) -> None:
        """Append one per-temperature sample."""
        self.samples.append(sample)

    def __len__(self) -> int:
        return len(self.samples)

    def series(self, attribute: str) -> list[float]:
        """One named column, e.g. ``series('unrouted_frac')``."""
        return [getattr(sample, attribute) for sample in self.samples]

    def to_csv(self) -> str:
        """The trace as CSV text (temperature descending), for plotting."""
        header = (
            "temperature,acceptance,cells_perturbed_frac,"
            "global_unrouted_frac,unrouted_frac,worst_delay,mean_cost"
        )
        lines = [header]
        for s in self.samples:
            lines.append(
                f"{s.temperature:.6g},{s.acceptance:.4f},"
                f"{s.cells_perturbed_frac:.4f},{s.global_unrouted_frac:.4f},"
                f"{s.unrouted_frac:.4f},{s.worst_delay:.4f},{s.mean_cost:.6g}"
            )
        return "\n".join(lines) + "\n"

    def as_rows(self) -> list[dict[str, float]]:
        """Rows for tabular output (the Figure-6 bench prints these)."""
        return [
            {
                "temperature": s.temperature,
                "acceptance": s.acceptance,
                "cells_perturbed_%": 100 * s.cells_perturbed_frac,
                "global_unrouted_%": 100 * s.global_unrouted_frac,
                "unrouted_%": 100 * s.unrouted_frac,
                "worst_delay_ns": s.worst_delay,
            }
            for s in self.samples
        ]

    # ------------------------------------------------------------------
    # Shape checks (what Figure 6 is evidence of)
    # ------------------------------------------------------------------
    def _mean(self, values: list[float]) -> float:
        return statistics.fmean(values) if values else 0.0

    def placement_activity_decays(self) -> bool:
        """Perturbation activity in the first third exceeds the last third."""
        cells = self.series("cells_perturbed_frac")
        third = max(1, len(cells) // 3)
        return self._mean(cells[:third]) > self._mean(cells[-third:])

    def global_routing_converges_by(self, fraction_of_run: float = 0.75) -> bool:
        """Global unroutability reaches zero within the given run fraction."""
        series = self.series("global_unrouted_frac")
        cut = max(1, int(len(series) * fraction_of_run))
        return any(value <= 0.0 for value in series[:cut])

    def detail_hump_exists(self) -> bool:
        """The globally-routed-but-detail-unrouted gap rises then falls."""
        gap = self.series("detail_only_unrouted_frac")
        if len(gap) < 3:
            return False
        peak = max(gap)
        return peak > gap[0] + 1e-12 and gap[-1] < peak

    def converged_to_full_routing(self) -> bool:
        """Whether the final sample shows zero unrouted nets."""
        return bool(self.samples) and self.samples[-1].unrouted_frac <= 0.0
