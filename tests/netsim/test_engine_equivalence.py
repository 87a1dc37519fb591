"""Property tests pinning the calendar-queue engine to the heap oracle.

Randomized schedules — one-shot events, cancellations, recurring
streams, events scheduled from inside callbacks — run through both
:class:`SimulationEngine` (calendar queue) and :class:`ReferenceEngine`
(the original single binary heap).  The callback order, the ``now()``
trace observed at each callback, and the engine counters must match
exactly, the way ``DictReferenceAnalyzer`` pins the columnar analyzers.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.engine import SimulationEngine
from tests.oracles import ReferenceEngine


def record_trace(engine, script, *, end=None):
    """Run ``script`` on ``engine``, returning the (tag, now) trace.

    ``script`` is a list of op tuples interpreted in order before the
    run starts:

    - ``("at", t, tag)``: schedule a one-shot at ``t``.
    - ``("cancel", i)``: cancel the i-th scheduled handle (modulo the
      number of handles so far; no-op when none exist yet).
    - ``("every", interval, tag, until)``: a recurring stream.
    - ``("spawn", t, delay, tag)``: a one-shot at ``t`` whose callback
      schedules another event ``delay`` later — exercises scheduling
      from inside the run loop.
    """
    trace = []
    handles = []

    def oneshot(tag):
        return lambda: trace.append((tag, engine.now))

    def spawner(t, delay, tag):
        def fire():
            trace.append((tag, engine.now))
            engine.schedule(engine.now + delay, oneshot(tag + "+"))

        return fire

    for op in script:
        if op[0] == "at":
            _, t, tag = op
            handles.append(engine.schedule(t, oneshot(tag)))
        elif op[0] == "cancel":
            if handles:
                handles[op[1] % len(handles)].cancel()
        elif op[0] == "every":
            _, interval, tag, until = op
            engine.schedule_every(interval, oneshot(tag), until=until)
        elif op[0] == "spawn":
            _, t, delay, tag = op
            handles.append(engine.schedule(t, spawner(t, delay, tag)))
    if end is None:
        executed = engine.run()
    else:
        executed = engine.run_until(end)
    return trace, executed


tags = st.text(alphabet="abcdef", min_size=1, max_size=2)
ops = st.one_of(
    st.tuples(st.just("at"), st.integers(0, 5000), tags),
    st.tuples(st.just("cancel"), st.integers(0, 30)),
    st.tuples(
        st.just("every"), st.integers(1, 400), tags, st.integers(0, 5000)
    ),
    st.tuples(
        st.just("spawn"), st.integers(0, 5000), st.integers(0, 500), tags
    ),
)
scripts = st.lists(ops, min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(script=scripts, end=st.one_of(st.none(), st.integers(0, 6000)))
def test_trace_equivalence(script, end):
    calendar = SimulationEngine()
    reference = ReferenceEngine()
    trace_c, ran_c = record_trace(calendar, script, end=end)
    trace_r, ran_r = record_trace(reference, script, end=end)
    assert trace_c == trace_r
    assert ran_c == ran_r
    assert calendar.now == reference.now
    assert calendar.pending == reference.pending
    assert calendar.events_run == reference.events_run
    assert calendar.queue_high_water == reference.queue_high_water


@settings(max_examples=100, deadline=None)
@given(
    script=scripts,
    width=st.sampled_from([1, 7, 64, 1024, 100000]),
    end=st.integers(0, 6000),
)
def test_bucket_width_invariance(script, width, end):
    # Any bucket width must produce the same trace — width only moves
    # work between the bucket heap and the per-bucket heaps.
    default = SimulationEngine()
    tuned = SimulationEngine(bucket_width=width)
    assert record_trace(default, script, end=end) == record_trace(
        tuned, script, end=end
    )


@settings(max_examples=100, deadline=None)
@given(script=scripts, split=st.integers(0, 6000), end=st.integers(0, 6000))
def test_run_until_resume_equivalence(script, split, end):
    # Running to `end` in one call matches splitting at an arbitrary
    # intermediate point on both engines.
    lo, hi = min(split, end), max(split, end)
    whole = SimulationEngine()
    trace_whole, _ = record_trace(whole, script, end=hi)
    parts = ReferenceEngine()
    trace_parts = []
    handles = []

    def oneshot(tag):
        return lambda: trace_parts.append((tag, parts.now))

    def spawner(t, delay, tag):
        def fire():
            trace_parts.append((tag, parts.now))
            parts.schedule(parts.now + delay, oneshot(tag + "+"))

        return fire

    for op in script:
        if op[0] == "at":
            handles.append(parts.schedule(op[1], oneshot(op[2])))
        elif op[0] == "cancel":
            if handles:
                handles[op[1] % len(handles)].cancel()
        elif op[0] == "every":
            parts.schedule_every(op[1], oneshot(op[2]), until=op[3])
        elif op[0] == "spawn":
            handles.append(parts.schedule(op[1], spawner(op[1], op[2], op[3])))
    parts.run_until(lo)
    parts.run_until(hi)
    assert trace_whole == trace_parts
    assert whole.now == parts.now
