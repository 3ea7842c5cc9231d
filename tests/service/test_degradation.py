"""The degradation ladder: descent thresholds, probes, and recovery."""

import pytest

from repro.errors import ConfigurationError
from repro.service.degradation import MODES, DegradationLadder


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def ladder(clock):
    return DegradationLadder(threshold=2, recover_after=30.0, clock=clock)


class TestDescent:
    def test_starts_healthy(self, ladder):
        assert MODES == ("serial", "cache-only")
        assert ladder.mode == "serial"
        assert ladder.plan() == list(MODES)

    def test_threshold_validated(self):
        with pytest.raises(ConfigurationError):
            DegradationLadder(threshold=0)

    def test_single_failure_does_not_descend(self, ladder):
        ladder.record_failure("serial")
        assert ladder.mode == "serial"

    def test_consecutive_failures_descend_to_cache_only(self, ladder):
        ladder.record_failure("serial")
        ladder.record_failure("serial")
        assert ladder.mode == "cache-only"
        assert ladder.plan() == ["cache-only"]
        assert ladder.snapshot()["descents"] == 1

    def test_success_resets_the_streak(self, ladder):
        ladder.record_failure("serial")
        ladder.record_success("serial")
        ladder.record_failure("serial")
        assert ladder.mode == "serial"

    @pytest.mark.parametrize("threshold", [1, 2, 3, 5])
    def test_descends_after_exactly_threshold_failures(self, threshold):
        ladder = DegradationLadder(threshold=threshold)
        for _ in range(threshold - 1):
            ladder.record_failure("serial")
        assert ladder.mode == "serial"
        ladder.record_failure("serial")
        assert ladder.mode == "cache-only"
        assert ladder.snapshot()["descents"] == 1

    def test_cache_only_is_the_floor(self, ladder):
        for _ in range(4):
            ladder.record_failure(ladder.mode)
        assert ladder.mode == "cache-only"
        assert ladder.snapshot()["descents"] == 1

    def test_failures_below_the_current_rung_are_ignored(self, ladder):
        ladder.record_failure("serial")
        ladder.record_failure("cache-only")  # rung below current: ignored
        assert ladder.mode == "serial"
        assert ladder.snapshot()["consecutive_failures"] == 1


class TestRecovery:
    def _degrade(self, ladder):
        ladder.record_failure("serial")
        ladder.record_failure("serial")
        assert ladder.mode == "cache-only"

    def test_no_probe_before_cooldown(self, ladder, clock):
        self._degrade(ladder)
        clock.advance(29.0)
        assert ladder.plan() == ["cache-only"]

    def test_probe_after_cooldown(self, ladder, clock):
        self._degrade(ladder)
        clock.advance(31.0)
        assert ladder.plan() == ["serial", "cache-only"]
        # Exactly one request probes; the next keeps the degraded plan.
        assert ladder.plan() == ["cache-only"]

    def test_successful_probe_ascends(self, ladder, clock):
        self._degrade(ladder)
        clock.advance(31.0)
        assert ladder.plan()[0] == "serial"
        ladder.record_success("serial")
        assert ladder.mode == "serial"
        assert ladder.snapshot()["recoveries"] == 1
        # Back at the top rung: nothing left to probe.
        clock.advance(31.0)
        assert ladder.plan() == ["serial", "cache-only"]

    def test_failed_probe_stays_and_restarts_clock(self, ladder, clock):
        self._degrade(ladder)
        clock.advance(31.0)
        assert ladder.plan()[0] == "serial"
        ladder.record_failure("serial")
        assert ladder.mode == "cache-only"
        clock.advance(29.0)
        assert ladder.plan() == ["cache-only"]  # clock restarted
        clock.advance(2.0)
        assert ladder.plan()[0] == "serial"
