"""Growth profiling: rank of the left-normed closure round by round, and a
log-log slope estimate of how that rank scales."""

import math
import statistics

from .constructions import generate_closure


class RankProfile:
    __slots__ = ("ranks", "rounds", "window", "exponent", "classification", "stabilized")

    def __init__(self, ranks, rounds, window, exponent, classification, stabilized):
        self.ranks = ranks
        self.rounds = rounds
        self.window = window
        self.exponent = exponent
        self.classification = classification
        self.stabilized = stabilized

    def to_report(self):
        return {
            "ranks": {str(r + 1): self.ranks[r] for r in range(len(self.ranks))},
            "rounds": self.rounds,
            "window": list(self.window),
            "exponent": None if self.exponent is None else round(self.exponent, 6),
            "classification": self.classification,
            "stabilized_at": self.stabilized,
        }


def gk_profile(c, gens, rmax=12):
    """Close the generators for rmax rounds and classify how the span rank
    scales with the round count: slope of log rank against log round over
    the back half of the trace, below 0.5 read as bounded, between 0.5 and
    1.5 as linear, above as superlinear."""
    if rmax < 1:
        raise ValueError("rmax must be >= 1")
    closure = generate_closure(c, gens, rounds=rmax)
    ranks = closure.ranks
    lo = max(1, math.ceil(rmax / 2))
    window = range(lo, rmax + 1)
    pts = [(r, ranks[r - 1]) for r in window]
    if len(pts) < 2:
        return RankProfile(ranks, rmax, window, None, "indeterminate", closure.stabilized)
    if all(rank == pts[0][1] for _, rank in pts):
        exponent = 0.0
    elif any(rank == 0 for _, rank in pts):
        return RankProfile(ranks, rmax, window, None, "indeterminate", closure.stabilized)
    else:
        xs = [math.log(r) for r, _ in pts]
        ys = [math.log(rank) for _, rank in pts]
        exponent = statistics.linear_regression(xs, ys).slope
    if exponent < 0.5:
        classification = "zero_growth"
    elif exponent <= 1.5:
        classification = "linear_growth"
    else:
        classification = "superlinear"
    return RankProfile(ranks, rmax, window, exponent, classification, closure.stabilized)


__all__ = ["RankProfile", "gk_profile"]
