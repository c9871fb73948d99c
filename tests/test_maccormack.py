import math
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest
from conftest import InlineExecutor

from surfpde.errors import SolverAbortError
from surfpde.maccormack import check_finite, maccormack_step, march


def test_step_matches_second_order_taylor():
    lam, k = -0.7, 0.05
    u = np.array([2.0, -1.0])
    new = maccormack_step(u, k, lambda direction, s: lam * s, lambda s: s)
    expected = u * (1.0 + k * lam + 0.5 * (k * lam) ** 2)
    assert np.abs(new - expected).max() < 1e-15


def test_forward_backward_rhs_see_predicted_state():
    seen = []

    def rhs(direction, s):
        seen.append((direction, s.copy()))
        return (np.zeros_like(s) if direction == "forward"
                else np.ones_like(s))

    u = np.zeros(3)
    new = maccormack_step(u, 0.1, rhs, lambda s: s)
    assert [d for d, _ in seen] == ["forward", "backward"]
    # predictor was u itself here, corrector adds k*1, average halves it
    assert np.abs(new - 0.05).max() < 1e-15


# the hook returns a Future of the increment; these are completed on
# submission, on the calling thread
inline = InlineExecutor().submit


def test_extra_corrector_receives_old_state():
    u = np.array([1.0, 2.0])
    captured = {}

    def extra(full_old):
        captured["state"] = full_old.copy()
        return np.full_like(full_old, 0.25)

    new = maccormack_step(u, 0.1, lambda direction, s: 0 * s, lambda s: s,
                          extra_corrector=partial(inline, extra))
    np.testing.assert_array_equal(captured["state"], u)
    assert np.abs(new - (u + 0.25)).max() < 1e-15


def test_extra_corrector_starts_before_the_predictor():
    # the increment is requested at the old state before the predictor's
    # right-hand side, so a caller can compute it while the step runs
    seen = []

    def rhs(direction, s):
        seen.append(direction)
        return 0 * s

    def extra(full_old):
        seen.append("extra")
        return np.zeros_like(full_old)

    maccormack_step(np.ones(2), 0.1, rhs, lambda s: s,
                    extra_corrector=partial(inline, extra))
    assert seen == ["extra", "forward", "backward"]


def test_extra_corrector_future_is_joined():
    u = np.array([1.0, 2.0])

    def rhs(direction, s):
        return -s if direction == "forward" else 2.0 * s

    def increment(full_old):
        return 0.25 * full_old

    want = maccormack_step(u, 0.1, rhs, lambda s: s,
                           extra_corrector=partial(inline, increment))
    with ThreadPoolExecutor(max_workers=1) as worker:
        got = maccormack_step(u, 0.1, rhs, lambda s: s.copy(),
                              extra_corrector=lambda s: worker.submit(
                                  increment, s))
        np.testing.assert_array_equal(got, want)

        def failing(full_old):
            raise ArithmeticError("increment failed")

        with pytest.raises(ArithmeticError, match="increment failed"):
            maccormack_step(u, 0.1, rhs, lambda s: s,
                            extra_corrector=lambda s: worker.submit(
                                failing, s))


def test_check_finite_passes_and_raises():
    check_finite(np.ones(4), step=1, time=0.1)
    bad = np.array([1.0, np.nan])
    with pytest.raises(SolverAbortError):
        check_finite(bad, step=3, time=0.3)


def test_march_returns_snapshots_sorted():
    k = 0.25
    out = march(np.zeros(2), lambda s: s + 1.0, k, [1.0, 0.25, 0.5])
    assert [t for t, _ in out] == [0.25, 0.5, 1.0]
    for t, s in out:
        np.testing.assert_array_equal(s, round(t / k))


def test_march_time_zero_is_a_copy():
    state = np.arange(3.0)
    (t, snap), = march(state, lambda s: s + 1.0, 0.1, [0.0])
    assert t == 0.0
    np.testing.assert_array_equal(snap, state)
    assert not np.shares_memory(snap, state)


def test_march_counts_steps_across_snapshots():
    # the 3rd step goes bad after the first snapshot at 2k: the abort names
    # the global step 3 and its time 3k
    k = 0.1
    calls = []

    def advance(s):
        calls.append(1)
        return s * np.nan if len(calls) == 3 else s + 1.0

    with pytest.raises(SolverAbortError) as info:
        march(np.zeros(2), advance, k, [2 * k, 5 * k])
    assert info.value.step == 3
    assert info.value.time == 3 * k


@pytest.mark.parametrize("t", [-0.5, 0.15])
def test_march_rejects_negative_or_fractional_times(t):
    with pytest.raises(ValueError, match=f"t = {t}"):
        march(np.zeros(2), lambda s: s + 1.0, 0.1, [0.2, t])


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_march_rejects_non_finite_times_before_any_step(t):
    # round(inf / k) would raise OverflowError and round(nan / k) a
    # ValueError that does not name t
    calls = []
    with pytest.raises(ValueError, match=f"t = {t} is not a finite time"):
        march(np.zeros(2), calls.append, 0.1, [0.2, t])
    assert calls == []


def test_march_rejects_step_counts_past_two_to_the_53_before_any_step():
    # 1e300 is a whole number of steps of 0.025 in floating point, but
    # 4e301 steps would never end and n k is not exact past 2**53
    calls = []
    with pytest.raises(ValueError, match=r"t = 1e\+300 is 4\.000e\+301 "
                       r"steps of 0\.025, more than 2\*\*53"):
        march(np.zeros(2), calls.append, 0.025, [0.05, 1e300])
    assert calls == []
    k = 2.0 ** -10
    (_, state), = march(np.zeros(2), lambda s: s + 1.0, k, [3 * k])
    assert state.tolist() == [3.0, 3.0]
