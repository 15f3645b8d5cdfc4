"""Simulation of the batch commands' scheduler with unit epoch times: the
pick rule the scheduler calls, driven the way it drives it."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailfocal.experiments import _pick

PROPS = settings(derandomize=True, deadline=None, max_examples=200)

# up to 12 runs, each of 1-50 planned epochs with an early stop after 1-50
# of them, on one of three data sources
RUNS = st.lists(
    st.tuples(st.integers(1, 50), st.integers(1, 50), st.sampled_from("xyz")),
    min_size=1, max_size=12,
)


def _simulate(lengths, sources, n):
    """Train runs of `lengths` epochs, whose data sources are `sources`, on
    `n` executors as experiments._train_runs does, every epoch taking one
    unit of time: the runs wait in one FIFO, an executor whose epoch ends
    gives its run back to the back of the queue, or finishes it, and then
    each free executor takes the run _pick chooses. Returns the (run, start
    time) of each epoch in the order they start, and the runs in the order
    they finish."""
    left, waiting = list(lengths), list(range(len(lengths)))
    free, held, busy = list(range(n)), [None] * n, {}  # busy: executor -> (end time, run)
    now, epochs, finished = 0, [], []
    while True:
        while free and waiting:
            w = free.pop(0)
            index = waiting.pop(_pick(waiting, sources, held[w], n))
            if n > 1 and sources[index] != held[w]:  # a new load: no run of its source waits
                assert held[w] not in (sources[i] for i in waiting)
            held[w], busy[w] = sources[index], (now + 1, index)
            epochs.append((index, now))
        if not busy:
            return epochs, finished
        w = min(busy, key=lambda w: busy[w][0])  # the first epoch to end, ties in start order
        now, index = busy.pop(w)
        free.append(w)
        left[index] -= 1
        (waiting if left[index] else finished).append(index)


@PROPS
@given(RUNS, st.integers(1, 4))
def test_no_executor_idles_while_a_run_waits(runs, n):
    lengths = [min(planned, stop) for planned, stop, _ in runs]
    epochs, finished = _simulate(lengths, [source for _, _, source in runs], n)
    assert sorted(finished) == list(range(len(runs)))
    assert sorted(index for index, _ in epochs) == sorted(
        index for index, k in enumerate(lengths) for _ in range(k)
    )
    end = {index: start + 1 for index, start in epochs}  # each run's last epoch ends last
    for t in range(max(end.values())):
        running = sum(start == t for _, start in epochs)
        assert running == min(n, sum(end[index] > t for index in end))


@PROPS
@given(RUNS)
def test_a_lone_executor_trains_one_run_at_a_time_in_submission_order(runs):
    lengths = [min(planned, stop) for planned, stop, _ in runs]
    epochs, finished = _simulate(lengths, [source for _, _, source in runs], 1)
    assert finished == list(range(len(runs)))
    # each run's epochs follow one another, so no other run is started but unfinished
    assert [index for index, _ in epochs] == [i for i, k in enumerate(lengths) for _ in range(k)]


@pytest.mark.parametrize("runs, makespan", [(3, 15), (7, 35), (12, 60)])
def test_fifo_makespans_of_ten_epoch_runs_on_two_executors(runs, makespan):
    epochs, _ = _simulate([10] * runs, ["x"] * runs, 2)
    assert max(start for _, start in epochs) + 1 == makespan == math.ceil(10 * runs / 2)
