"""Summary statistics and failure accounting."""

from __future__ import annotations

import statistics

#: the tail percentile must leave at least this many samples beyond it
TAIL_BEYOND = 10

#: sessions per chunk for the tail, unless a workload sets its own
TAIL_CHUNK = 100


def highest_supported(values) -> tuple[float, float]:
    """The highest percentile with at least :data:`TAIL_BEYOND` samples
    beyond it: ``(value, percentile)``.

    Of ``n`` sorted samples, the one at 0-based rank ``n - 11`` has ten
    beyond it; it is the nearest-rank percentile ``100 * (n - 10) / n``
    (p90 of 100 samples).
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(
            f"tail needs more than {TAIL_BEYOND} samples, got {n}")
    return sorted(values)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def tail(values, chunk: int = TAIL_CHUNK) -> tuple[float, float, int]:
    """Session tail: ``(value, percentile, sample count)``.

    *values* are in completion order.  They are cut into consecutive
    chunks of exactly *chunk* sessions, and the sessions after the last
    whole chunk are left out; a run with fewer sessions is one chunk.
    Each chunk gives its highest percentile with ten samples beyond it
    (p90 of 100), and the tail is the median over chunks.  A single
    stall then moves one chunk's figure, not the run's, and the
    percentile does not change with the number of sessions a run fits,
    which follows the host's speed.
    """
    n = len(values)
    if n < chunk:
        per_chunk = [highest_supported(values)]
    else:
        per_chunk = [highest_supported(values[i:i + chunk])
                     for i in range(0, n - chunk + 1, chunk)]
    return (statistics.median(v for v, _ in per_chunk),
            statistics.median(p for _, p in per_chunk), n)


class Tally:
    """Sessions attempted and failed, with the reason of each failure.

    A session fails when it raised, was refused, or disagreed with the
    oracle; all three count the same.
    """

    def __init__(self):
        self.attempted = 0
        self.reasons: dict[str, int] = {}

    def record(self, failure: str | None) -> None:
        """One attempted session; *failure* is ``None`` when it passed."""
        self.attempted += 1
        if failure is not None:
            self.reasons[failure] = self.reasons.get(failure, 0) + 1

    @property
    def failed(self) -> int:
        return sum(self.reasons.values())

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
