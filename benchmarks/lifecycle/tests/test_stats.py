"""Nearest-rank percentiles, the ten-beyond rule, the op ledger."""

import pytest

from stats import (
    OpLog,
    median,
    percentile,
    samples_beyond,
    supported,
    tail_percentile,
)


def test_nearest_rank_returns_observed_samples():
    values = [15, 20, 35, 40, 50]
    assert percentile(values, 30) == 20
    assert percentile(values, 40) == 20
    assert percentile(values, 50) == 35
    assert percentile(values, 100) == 50
    assert percentile([7.0], 99) == 7.0
    assert percentile(list(range(1, 101)), 90) == 90


def test_median_of_an_even_count_is_the_lower_middle():
    assert median([4, 1, 3, 2]) == 2
    assert median([3, 1, 2]) == 2


def test_percentile_rejects_nonsense():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_ten_samples_beyond_rule():
    assert samples_beyond(120, 90) == 12
    assert samples_beyond(120, 99) == 1
    assert supported(120, 90)
    assert not supported(120, 99)
    assert not supported(0, 50)
    samples = [float(i) for i in range(120)]
    assert tail_percentile(len(samples)) == 90
    assert percentile(samples, 90) == 107.0


def test_tail_percentile_ladder():
    assert tail_percentile(8) == 50  # too few for any tail
    assert tail_percentile(48) == 75
    assert tail_percentile(72) == 75
    assert tail_percentile(99) == 75  # nine beyond p90
    assert tail_percentile(100) == 90
    assert tail_percentile(3600) == 90  # p90 is the highest tail reported


def test_raising_op_counts_as_attempted_and_failed():
    log = OpLog()

    def boom():
        raise RuntimeError("planted")

    assert log.run("ok", lambda: 41 + 1) == 42
    assert log.run("boom", boom) is None
    assert log.run("rejected", lambda: "no", succeeded=lambda r: r == "yes") == "no"
    assert (log.attempted, log.failed) == (3, 2)
    assert log.failed_share == pytest.approx(2 / 3)
    assert len(log.latencies) == 3  # a failed op still took its time
    assert sorted(log.by_kind) == ["boom", "ok", "rejected"]
    assert any("RuntimeError: planted" in error for error in log.errors)


def test_failed_check_counts_without_a_latency():
    log = OpLog()
    log.run("ok", lambda: None)
    log.fail("schedule collides")
    assert (log.attempted, log.failed, len(log.latencies)) == (2, 1, 1)
    assert OpLog().failed_share == 0.0
