"""Differential tests: the vectorised black-box paths against the
per-tick reference loops they replaced.

Readout segmentation (``ReadoutTrace.segment``), the start detector's
batch scans (``find_trigger`` / ``find_all_triggers``) and the scheme
compiler (``AttackScheme.compile``) must give exactly what the scalar
implementations below give, on every input.
"""

from typing import List

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import AttackScheme, DNNStartDetector
from repro.errors import SchemeError
from repro.sensors.trace import ReadoutTrace, Segment

NOMINAL = 92


# -- reference implementations (per-tick / per-run Python loops) -------------


def _ref_runs(mask) -> List[tuple]:
    runs = []
    start = 0
    for k in range(1, len(mask) + 1):
        if k == len(mask) or mask[k] != mask[start]:
            runs.append((bool(mask[start]), start, k))
            start = k
    return runs


def _ref_normalize(runs: List[tuple], total: int) -> List[tuple]:
    if not runs:
        return [(False, 0, total)]
    glued: List[List] = []
    for kind, s, e in runs:
        if glued and glued[-1][0] == kind:
            glued[-1][2] = e
        else:
            glued.append([kind, s, e])
    out = []
    cursor = 0
    for i, (kind, s, e) in enumerate(glued):
        end = glued[i + 1][1] if i + 1 < len(glued) else total
        out.append((kind, cursor, end))
        cursor = end
    return out


def _ref_segment(trace: ReadoutTrace, stall_band: float, window: int,
                 min_activity_ticks: int,
                 merge_gap_ticks: int) -> List[Segment]:
    mask = trace.activity_mask(stall_band, window)
    runs = [(kind, s, e) for kind, s, e in _ref_runs(mask)
            if not (kind and (e - s) < min_activity_ticks)]
    runs = _ref_normalize(runs, len(trace))
    changed = True
    while changed:
        changed = False
        for j in range(1, len(runs) - 1):
            kind, s, e = runs[j]
            if (not kind and (e - s) < merge_gap_ticks
                    and runs[j - 1][0] and runs[j + 1][0]):
                fused = (True, runs[j - 1][1], runs[j + 1][2])
                runs = runs[: j - 1] + [fused] + runs[j + 2:]
                changed = True
                break
    segments = []
    for kind, s, e in runs:
        span = trace.readouts[s:e]
        segments.append(Segment(
            kind="activity" if kind else "stall", start=s, end=e,
            mean=float(span.mean()), std=float(span.std()),
            minimum=int(span.min())))
    return segments


def _ref_find_trigger(det: DNNStartDetector, readouts, start: int = 0):
    det.reset()
    for k in range(start, len(readouts)):
        if det.observe_readout(int(readouts[k])):
            return k
    return None


def _ref_find_all_triggers(det: DNNStartDetector, readouts,
                           rearm_gap: int) -> List[int]:
    triggers: List[int] = []
    cursor = 0
    while cursor < len(readouts):
        hit = _ref_find_trigger(det, readouts, start=cursor)
        if hit is None:
            break
        triggers.append(hit)
        cursor = hit + rearm_gap
    return triggers


def _ref_compile(scheme: AttackScheme) -> np.ndarray:
    bits = np.zeros(scheme.total_cycles, dtype=np.uint8)
    for start in scheme.strike_start_cycles():
        bits[start:start + scheme.strike_cycles] = 1
    return bits


# -- segmentation -------------------------------------------------------------


@st.composite
def _masked_traces(draw):
    """A readout trace whose window-1 activity mask is built from runs
    whose lengths cluster on the filter and merge thresholds."""
    min_ticks = draw(st.integers(min_value=0, max_value=12))
    gap_ticks = draw(st.integers(min_value=0, max_value=12))
    edge_lengths = sorted({max(1, n) for n in (
        1, min_ticks - 1, min_ticks, min_ticks + 1,
        gap_ticks - 1, gap_ticks, gap_ticks + 1)})
    lengths = draw(st.lists(
        st.one_of(st.sampled_from(edge_lengths),
                  st.integers(min_value=1, max_value=40)),
        min_size=1, max_size=30))
    active = draw(st.booleans())
    mask = []
    for n in lengths:
        mask += [active] * n
        active = not active
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = np.asarray(mask)
    # stall_band 1.5 at window 1: readouts <= 90 are activity.
    readouts = np.where(mask, rng.integers(80, 91, mask.size),
                        rng.integers(91, 96, mask.size))
    return readouts, min_ticks, gap_ticks


class TestSegmentParity:
    @settings(max_examples=300, deadline=None)
    @given(case=_masked_traces())
    @example(case=(np.full(30, 92), 5, 5))        # no activity at all
    @example(case=(np.full(30, 85), 5, 5))        # all activity
    @example(case=(np.full(3, 85), 5, 5))         # all activity, too short
    @example(case=(np.array([85]), 1, 1))         # single tick
    def test_segments_match_reference(self, case):
        readouts, min_ticks, gap_ticks = case
        trace = ReadoutTrace(readouts, dt=5e-9, nominal=NOMINAL)
        args = (1.5, 1, min_ticks, gap_ticks)
        assert trace.segment(*args) == _ref_segment(trace, *args)

    def test_runs_exactly_at_thresholds(self):
        """An activity run of exactly min_activity_ticks survives and a
        stall of exactly merge_gap_ticks splits; one tick less does not."""
        act, stall = 85, 93
        for min_ticks, gap_ticks in ((4, 6), (6, 4), (5, 5)):
            for a in (min_ticks - 1, min_ticks):
                for g in (gap_ticks - 1, gap_ticks):
                    readouts = np.array([stall] * 7 + [act] * 10 + [stall] * g
                                        + [act] * a + [stall] * g
                                        + [act] * 10 + [stall] * 3)
                    trace = ReadoutTrace(readouts, dt=5e-9, nominal=NOMINAL)
                    args = (1.5, 1, min_ticks, gap_ticks)
                    assert trace.segment(*args) == _ref_segment(trace, *args)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           n=st.integers(min_value=1, max_value=600),
           window=st.integers(min_value=1, max_value=25),
           min_ticks=st.integers(min_value=0, max_value=30),
           gap_ticks=st.integers(min_value=0, max_value=60))
    def test_smoothed_noisy_traces_match_reference(self, seed, n, window,
                                                   min_ticks, gap_ticks):
        rng = np.random.default_rng(seed)
        level = np.repeat(rng.integers(84, 94, size=n // 20 + 1), 20)[:n]
        readouts = level + rng.integers(-2, 3, size=n)
        trace = ReadoutTrace(readouts, dt=5e-9, nominal=NOMINAL)
        args = (0.45, window, min_ticks, gap_ticks)
        assert trace.segment(*args) == _ref_segment(trace, *args)


# -- start detector ------------------------------------------------------------


_readout_runs = st.lists(
    st.tuples(st.sampled_from([0, 60, 86, 88, 89, 90, 91, 92, 94, 128]),
              st.integers(min_value=1, max_value=8)),
    min_size=1, max_size=40)


def _expand(runs) -> np.ndarray:
    return np.concatenate([np.full(n, value) for value, n in runs])


class TestDetectorParity:
    @settings(max_examples=200, deadline=None)
    @given(runs=_readout_runs,
           glitch_tolerance=st.integers(min_value=0, max_value=2),
           debounce=st.integers(min_value=1, max_value=4),
           start=st.integers(min_value=0, max_value=80))
    @example(runs=[(92, 3), (86, 3)], glitch_tolerance=0, debounce=3,
             start=0)
    def test_find_trigger_matches_per_sample_loop(self, runs,
                                                  glitch_tolerance,
                                                  debounce, start):
        readouts = _expand(runs)
        fast = DNNStartDetector(debounce=debounce,
                                glitch_tolerance=glitch_tolerance)
        slow = DNNStartDetector(debounce=debounce,
                                glitch_tolerance=glitch_tolerance)
        assert fast.find_trigger(readouts, start=start) \
            == _ref_find_trigger(slow, readouts, start=start)
        assert (fast.state, fast._streak, fast._glitches) \
            == (slow.state, slow._streak, slow._glitches)

    @settings(max_examples=150, deadline=None)
    @given(runs=_readout_runs,
           glitch_tolerance=st.integers(min_value=0, max_value=2),
           rearm_gap=st.integers(min_value=1, max_value=20))
    @example(runs=[(92, 3), (86, 3)], glitch_tolerance=0, rearm_gap=1)
    def test_find_all_triggers_matches_per_sample_loop(self, runs,
                                                       glitch_tolerance,
                                                       rearm_gap):
        readouts = _expand(runs * 3)
        fast = DNNStartDetector(glitch_tolerance=glitch_tolerance)
        slow = DNNStartDetector(glitch_tolerance=glitch_tolerance)
        assert fast.find_all_triggers(readouts, rearm_gap=rearm_gap) \
            == _ref_find_all_triggers(slow, readouts, rearm_gap)


# -- scheme compiler -------------------------------------------------------------


class TestCompileParity:
    @settings(max_examples=200, deadline=None)
    @given(delay=st.integers(min_value=0, max_value=120),
           period=st.integers(min_value=1, max_value=40),
           count=st.integers(min_value=0, max_value=60),
           width=st.integers(min_value=1, max_value=8))
    @example(delay=0, period=1, count=4500, width=1)
    def test_compile_matches_per_strike_loop(self, delay, period, count,
                                             width):
        try:
            scheme = AttackScheme(delay, period, count, strike_cycles=width)
        except SchemeError:
            return
        bits = scheme.compile()
        want = _ref_compile(scheme)
        assert bits.dtype == want.dtype
        assert np.array_equal(bits, want)
        assert np.array_equal(AttackScheme.parse(bits).compile(), bits)
        if count >= 2 and period > width:
            assert AttackScheme.parse(bits) == scheme
