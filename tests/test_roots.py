import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cqnls import shooting
from cqnls.roots import halve


@settings(max_examples=300, deadline=None)
@given(lo=st.floats(-1e3, 1e3), width=st.floats(1e-300, 1e3), share=st.floats(0.0, 1.0))
@example(lo=0.0, width=1.0, share=2.0**-60)
@example(lo=1.0, width=2.220446049250313e-16 * 3, share=0.5)
def test_tolerance_zero_ends_on_the_first_float_past_a_threshold(lo, width, share):
    # the ends are never evaluated, and halving stops on adjacent floats
    hi = max(lo + width, math.nextafter(lo, math.inf))
    threshold = min(max(lo + share * (hi - lo), math.nextafter(lo, hi)), hi)
    calls = []

    def upper(x):
        calls.append(x)
        return x >= threshold
    a, b = halve(upper, lo, hi, 0.0)
    assert a < threshold <= b == threshold
    assert b == math.nextafter(a, math.inf)
    assert lo not in calls and hi not in calls


@settings(max_examples=200, deadline=None)
@given(lo=st.floats(1e-3, 1e3), width=st.floats(1e-6, 1e3), share=st.floats(0.0, 1.0),
       tolerance=st.floats(1e-15, 0.5))
def test_stops_once_the_bracket_is_within_tolerance_of_its_lower_end(lo, width, share,
                                                                    tolerance):
    hi = lo + width
    threshold = lo + share * width
    a, b = halve(lambda x: x >= threshold, lo, hi, tolerance)
    # an end the predicate never saw is the only one on the wrong side
    assert lo <= a < b <= hi
    assert (a < threshold or a == lo) and (threshold <= b or b == hi)
    assert b - a <= tolerance * a or b == math.nextafter(a, math.inf)


@st.composite
def _step_events(draw):
    """(r, r_new, fractions of the step at the event roots, directions,
    fired indices): roots anywhere in the step, 1e-12 of it apart or equal
    near a common base, or at the start."""
    r = draw(st.floats(1e-3, 50.0))
    h = draw(st.floats(1e-6, 5.0))
    base = draw(st.floats(0.0, 1.0))
    near = st.integers(-3, 3).map(lambda j: min(max(base + j * 1e-12, 0.0), 1.0))
    fractions = draw(st.lists(st.one_of(st.floats(0.0, 1.0), near, st.just(0.0)),
                              min_size=2, max_size=4))
    directions = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=len(fractions),
                               max_size=len(fractions)))
    fired = sorted(draw(st.sets(st.integers(0, len(fractions) - 1), min_size=2)))
    return r, r + h, fractions, directions, fired


def _linear_events(r, r_new, fractions, directions):
    """Events d * (t - root), each with its root on the step as a float, so
    the earliest one is known exactly."""
    roots = [min(r + f * (r_new - r), r_new) for f in fractions]

    def events(t, u, up):
        return tuple(d * (t - root) for d, root in zip(directions, roots))
    return roots, events


@settings(max_examples=300, deadline=None)
@given(case=_step_events())
# roots 1e-12 of the step apart, both ways round
@example(case=(1.0, 1.5, [0.3 + 1e-12, 0.3], [1.0, -1.0], [0, 1]))
@example(case=(1.0, 1.5, [0.3, 0.3 + 1e-12], [-1.0, 1.0], [0, 1]))
# an equal root goes to the lower index
@example(case=(2.0, 2.25, [0.5, 0.5, 0.1], [1.0, -1.0, 1.0], [0, 1]))
# a root at the step start, and two there
@example(case=(3.0, 3.5, [0.2, 0.0], [1.0, -1.0], [0, 1]))
@example(case=(3.0, 3.5, [0.0, 0.0, 0.0], [-1.0, 1.0, 1.0], [1, 2]))
# a root at the start beats one at the float after it
@example(case=(1.0, 1.5, [2.0**-51, 0.0], [1.0, 1.0], [0, 1]))
# a root at the step end
@example(case=(3.0, 3.5, [1.0, 0.9], [1.0, 1.0], [0, 1]))
def test_first_event_takes_the_earliest_root(case):
    r, r_new, fractions, directions, fired = case
    roots, events = _linear_events(r, r_new, fractions, directions)
    segment = shooting._Segment(r, r_new, 1.0, 0.0, (0.0,) * 7, (0.0,) * 7)
    assert shooting._first_event(events, fired, segment) == min((roots[k], k)
                                                                 for k in fired)[1]
