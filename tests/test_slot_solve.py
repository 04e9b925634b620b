"""The engine's whole-row similarity solve against a per-slot loop."""

import struct

import numpy as np
from hypothesis import example, given, settings, strategies as st

import fdisim.engine as engine

CTHRESH = 3.0


def slot_loop(cthresh, aw0, w0, own, x, a, c, old_a, old_c, prev, part):
    """One receiver's sequential pass over its slots in Python floats: the
    verdict and flag of every slot and the sums after every slot."""
    sum_aw, sum_w = aw0, w0
    flags, after = list(prev), []
    for k in range(len(x)):
        if part[k]:
            if prev[k]:
                sum_aw += a[k] * c[k] - old_a[k] * old_c[k]
                sum_w += c[k] - old_c[k]
            verdict = (abs(x[k] - (own + sum_aw) / (1.0 + sum_w)) < cthresh
                       and abs(own - a[k]) < cthresh)
            if verdict and not prev[k]:
                sum_aw += a[k] * c[k]
                sum_w += c[k]
            elif not verdict and prev[k]:
                sum_aw -= a[k] * c[k]
                sum_w -= c[k]
            flags[k] = verdict
        after.append((sum_aw, sum_w))
    return flags, after


def bits(value) -> bytes:
    return struct.pack("<d", float(value))


def solve_rows(rows, cthresh=CTHRESH):
    """Run the engine's solve on equal-width rows of
    (aw0, w0, own, slots), each slot (x, a, c, old_a, old_c, prev, part)."""
    def column(field, dtype=float):
        return np.array([[slot[field] for slot in slots] for *_, slots in rows], dtype=dtype)

    width = len(rows[0][3])
    x, a, c, old_a, old_c = (column(f).reshape(len(rows), width) for f in range(5))
    prev, part = (column(f, bool).reshape(len(rows), width) for f in (5, 6))
    return engine._solve(np.array([r[0] for r in rows]), np.array([r[1] for r in rows]),
                         np.array([r[2] for r in rows]), x, a, c, old_a * old_c, old_c, prev,
                         part, cthresh)


def check_rows(rows, cthresh=CTHRESH):
    # sums that overflow turn to inf and nan, as in a run
    with np.errstate(over="ignore", invalid="ignore"):
        verdict, after = solve_rows(rows, cthresh)
    for r, (aw0, w0, own, slots) in enumerate(rows):
        flags, sums = slot_loop(cthresh, aw0, w0, own, *zip(*slots)) if slots else ([], [])
        prev = [slot[5] for slot in slots]
        part = [slot[6] for slot in slots]
        assert [bool(v) if p else q for v, p, q in zip(verdict[r], part, prev)] == flags
        for k, (sum_aw, sum_w) in enumerate(sums):
            assert bits(after[r, k + 1].real) == bits(sum_aw)
            assert bits(after[r, k + 1].imag) == bits(sum_w)
        assert bits(after[r, -1].real) == bits(sums[-1][0] if sums else aw0)


# a slot: this round's message (reading, aggregate, count) and the record
# held before it (aggregate, count), last round's flag and whether the
# message is taken in at all (not inactive, blacklisted or discarded); an
# absent record is one that is neither flagged nor holds values
readings = st.floats(min_value=8.0, max_value=24.0)
slot = st.tuples(readings, st.floats(min_value=10.0, max_value=22.0), st.integers(0, 8),
                 st.floats(min_value=10.0, max_value=22.0), st.integers(0, 8),
                 st.booleans(), st.booleans())
absent = st.tuples(readings, st.floats(min_value=10.0, max_value=22.0), st.integers(0, 8),
                   st.just(0.0), st.just(0), st.just(False), st.booleans())


# a refresh overflows the sum to inf, the sender leaves it (inf - inf is nan),
# and the nan runs on through the later slots
OVERFLOW_ROW = (1.5e308, 50.0, 16.0, [(16.0, 1e308, 8, 16.0, 1, True, True),
                                      (16.0, 16.0, 1, 16.0, 1, True, True),
                                      (16.0, 16.0, 1, 0.0, 0, False, True)])


@settings(max_examples=300, deadline=None)
# a sum of -0.0 stays -0.0 through slots that change nothing
@example([(-0.0, 50.0, 16.0, [(16.0, 16.0, 1, 0.0, 0, False, False),
                              (30.0, 16.0, 1, 0.0, 0, False, True)])])
# and so do both sums of a row that is solved again
@example([(-0.0, -0.0, 16.0, [(16.0, 16.0, 1, 0.0, 0, False, False),
                              (16.0, 16.0, 1, 0.0, 0, False, True)])])
@example([OVERFLOW_ROW])
@given(st.integers(0, 14).flatmap(lambda width: st.lists(
    st.tuples(st.floats(min_value=-1e3, max_value=1e3), st.integers(40, 60).map(float),
              st.floats(min_value=12.0, max_value=20.0),
              st.lists(st.one_of(slot, absent), min_size=width, max_size=width)),
    min_size=1, max_size=5)))
def test_solve_matches_the_slot_loop(rows):
    check_rows(rows)


def staircase(width, cthresh):
    """A row in which slot m turns similar only once the m slots before it
    have entered the similar set, and no slot was similar last round."""
    own, agg = 0.0, 9.0
    slots, sum_aw, sum_w = [], 0.0, 0.0
    for _ in range(width):
        mean = (own + sum_aw) / (1.0 + sum_w)
        # within the threshold of this mean, beyond it for every smaller one
        slots.append((mean + cthresh - 0.01, agg, 1, 0.0, 0, False, True))
        sum_aw += agg * 1
        sum_w += 1
    return (0.0, 0.0, own, slots)


def count_cumsums(monkeypatch):
    calls = []
    cumsum = np.cumsum
    monkeypatch.setattr(np, "cumsum", lambda *a, **kw: calls.append(1) or cumsum(*a, **kw))
    return calls


def test_every_first_guess_wrong_takes_width_plus_one_iterations(monkeypatch):
    """In the staircase row each iteration fixes exactly one more slot, and
    one more confirms the row."""
    width, cthresh = 10, 10.0
    rows = [staircase(width, cthresh)]
    check_rows(rows, cthresh)
    calls = count_cumsums(monkeypatch)
    verdict = solve_rows(rows, cthresh)[0]
    assert verdict.all()
    assert len(calls) == width + 1


def test_rows_solved_again_come_out_as_alone(monkeypatch):
    """Staircase rows share a block with rows whose first guess holds (every
    sender stays similar, or stays dissimilar): only the staircase rows are
    solved again, and every row comes out bit for bit as it does alone."""
    width, cthresh = 10, 10.0
    stay_similar = (7.0 * width, 1.0 * width, 7.0, [(7.0, 7.0, 1, 7.0, 1, True, True)] * width)
    stay_apart = (0.0, 0.0, 7.0, [(40.0, 7.0, 1, 0.0, 0, False, True)] * width)
    rows = [staircase(width, cthresh), stay_similar, stay_apart, staircase(width, cthresh)]
    check_rows(rows, cthresh)
    calls = count_cumsums(monkeypatch)
    verdict, after = solve_rows(rows, cthresh)
    assert len(calls) == width + 1
    assert verdict[[0, 1, 3]].all() and not verdict[2].any()
    for r, row in enumerate(rows):
        calls.clear()
        alone_verdict, alone_after = solve_rows([row], cthresh)
        assert len(calls) == (width + 1 if r in (0, 3) else 1)
        assert (verdict[r] == alone_verdict[0]).all()
        assert after[r].tobytes() == alone_after[0].tobytes()


def test_overflowing_sums_run_on_as_nan(monkeypatch):
    """The overflow example does reach nan, in the second solve of its row,
    and the nan stays in the sums to the row's end."""
    calls = count_cumsums(monkeypatch)
    with np.errstate(over="ignore", invalid="ignore"):
        verdict, after = solve_rows([OVERFLOW_ROW])
    assert len(calls) == 2
    assert not verdict.any()
    assert np.isnan(after[0, 1:].real).all()
