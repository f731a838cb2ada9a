import dataclasses
import math
import warnings
import weakref
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import oracle_entropy, oracle_hidden_stability

from bithalt.errors import InvalidDistributionError, InvalidInputError
from bithalt.signals import (
    HIDDEN_NORM_EPS,
    RunningSignals,
    SignalReadout,
    StepSignals,
    entropy,
    hidden_stability,
    trace_stability,
)
from bithalt.trace_io import read_trace

NAN_HIDDEN_TRACE = Path(__file__).resolve().parent / "data" / "trace_v1" / "nan_hidden.jsonl"


class TestEntropy:
    def test_point_mass_is_zero(self):
        assert entropy([1.0, 0.0, 0.0, 0.0]) == 0.0

    def test_uniform_four(self):
        assert entropy([0.25] * 4) == pytest.approx(math.log(4), rel=1e-12)

    def test_hand_computed_mixed(self):
        # -(0.5 ln 0.5 + 2 * 0.25 ln 0.25) = 1.5 ln 2
        expected = 1.5 * math.log(2)
        assert expected == pytest.approx(1.039721, abs=5e-7)
        assert entropy([0.5, 0.25, 0.25]) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 10, 1000])
    def test_uniform_n_equals_ln_n(self, n):
        assert entropy([1.0 / n] * n) == pytest.approx(math.log(n), rel=1e-9, abs=1e-12)

    def test_negative_entry_rejected(self):
        with pytest.raises(InvalidDistributionError):
            entropy([1.1, -0.1])

    def test_bad_sum_rejected(self):
        with pytest.raises(InvalidDistributionError):
            entropy([0.5, 0.4])

    @pytest.mark.parametrize("distribution,message", [
        ([], "non-empty 1-d vector"),
        ([[0.5, 0.5]], "non-empty 1-d vector"),
        ([float("nan"), 1.0], "non-finite entries"),
        ([float("inf"), 0.0], "non-finite entries"),
        # Non-finite is checked before negative, whatever the other entries.
        ([float("-inf"), 1.0], "non-finite entries"),
        ([float("nan"), -1.0, 2.0], "non-finite entries"),
        ([float("inf"), float("-inf")], "non-finite entries"),
        ([-0.5, 1.5], "negative entries"),
        ([1e308, 1e308], "sums to inf, not 1"),
    ])
    def test_malformed_vector_rejected(self, distribution, message):
        # Under -W error a numpy warning, such as the sum's overflow, would escape the
        # engine's error handling as a traceback.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidDistributionError, match=message):
                entropy(distribution)

    @given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=30))
    def test_permutation_invariant(self, weights):
        p = np.array(weights) / sum(weights)
        rng = np.random.default_rng(0)
        shuffled = rng.permutation(p)
        assert entropy(p) == pytest.approx(entropy(shuffled), rel=1e-12, abs=1e-12)

    @given(st.lists(st.one_of(st.just(0.0), st.floats(min_value=1e-300, max_value=1.0)),
                    min_size=1, max_size=300), st.booleans(), st.booleans())
    @example([0.25] * 4, False, True)  # no zero entry: entropy reads p itself
    @example([0.5, 0.0, 0.5], False, False)
    @example([1.0], False, False)  # -0.0, in both
    def test_equals_the_oracle_bit_for_bit(self, weights, zeros, as_array):
        if zeros:
            weights = [0.0, *weights, 0.0]
        assume(sum(weights) > 0)
        p = [w / sum(weights) for w in weights]
        assume(abs(math.fsum(p) - 1.0) <= 1e-6)
        dist = array("d", p) if as_array else p  # replay passes array('d')
        assert entropy(dist).hex() == oracle_entropy(p).hex()

    def test_bounded_by_log_vocab(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = rng.integers(2, 200)
            p = rng.random(n)
            p /= p.sum()
            assert 0.0 <= entropy(p) <= math.log(n) + 1e-9


def brute_force_trace_stability(chunks):
    stripped = [c.strip() for c in chunks]
    pairs = [
        (a, b)
        for a, b in zip(stripped, stripped[1:])
        if len(a) >= 8 and len(b) >= 8
    ]
    if len(pairs) < 2:
        return 1.0
    return sum(a == b for a, b in pairs) / len(pairs)


class TestTraceStability:
    def test_all_equal(self):
        assert trace_stability(["abcdefgh"] * 3) == 1.0

    def test_half_equal(self):
        assert trace_stability(["abcdefgh", "abcdefgh", "zzzzzzzz"]) == 0.5

    def test_short_chunks_fall_back(self):
        assert trace_stability(["hi", "yo"]) == 1.0

    def test_empty_falls_back(self):
        assert trace_stability([]) == 1.0

    def test_single_eligible_unequal_pair_falls_back(self):
        # Literal fallback reading: one eligible pair still yields 1.0.
        assert trace_stability(["abcdefgh", "ijklmnop"]) == 1.0

    def test_whitespace_stripped(self):
        assert trace_stability(["  abcdefgh\n", "abcdefgh", "\tabcdefgh "]) == 1.0

    def test_unicode_code_points_counted(self):
        # 8 multi-byte characters qualify.
        chunk = "αααααααβ"
        assert len(chunk) == 8
        assert trace_stability([chunk, chunk, chunk]) == 1.0

    @given(
        st.lists(
            st.text(alphabet="ab \n", min_size=0, max_size=12),
            min_size=0,
            max_size=20,
        )
    )
    @settings(max_examples=300)
    def test_matches_brute_force(self, chunks):
        assert trace_stability(chunks) == brute_force_trace_stability(chunks)

    @given(
        st.lists(st.text(alphabet="abcdefgh", min_size=8, max_size=12), min_size=0, max_size=10),
        st.text(alphabet="xyzwvuts", min_size=8, max_size=12),
    )
    def test_appending_equal_pair_never_lowers_numerator(self, chunks, extra):
        def counts(cs):
            stripped = [c.strip() for c in cs]
            return sum(
                a == b and len(a) >= 8 and len(b) >= 8
                for a, b in zip(stripped, stripped[1:])
            )

        before = counts(chunks)
        after = counts(chunks + [extra, extra])
        assert after >= before + 1


class TestHiddenStability:
    def test_identical_directions(self):
        v = [3.0, 4.0]
        assert hidden_stability([v, v]) == pytest.approx(1.0, abs=1e-6)

    def test_orthogonal(self):
        assert hidden_stability([(1.0, 0.0), (0.0, 1.0)]) == pytest.approx(0.0, abs=1e-12)

    def test_mean_of_cosines(self):
        got = hidden_stability([(1.0, 0.0), (0.0, 1.0), (0.0, 1.0)])
        assert got == pytest.approx(0.5, abs=1e-6)

    def test_fewer_than_two_vectors(self):
        assert hidden_stability([]) == 1.0
        assert hidden_stability([(1.0, 2.0)]) == 1.0

    def test_zero_vector_contributes_zero(self):
        assert hidden_stability([(0.0, 0.0), (1.0, 0.0)]) == pytest.approx(0.0, abs=1e-6)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            hidden_stability([(1.0, 0.0), (1.0, 0.0, 0.0)])

    def test_can_be_negative(self):
        assert hidden_stability([(1.0, 0.0), (-1.0, 0.0)]) == pytest.approx(-1.0, abs=1e-6)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-5, max_value=5),
                st.floats(min_value=-5, max_value=5),
                st.floats(min_value=-5, max_value=5),
            ).filter(lambda v: math.hypot(*v) >= 1e-3),
            min_size=2,
            max_size=8,
        ),
        st.floats(min_value=0.5, max_value=100.0),
    )
    # These two results differ by 1.28e-6: more than a fixed 1e-6 allows.
    @example(vecs=[(0.0, 0.0, 0.015625)] * 2, scale=0.5)
    def test_positive_rescaling_invariant(self, vecs, scale):
        base = hidden_stability(vecs)
        scaled = hidden_stability([tuple(scale * x for x in v) for v in vecs])
        # HIDDEN_NORM_EPS shortens each unit vector by at most eps / norm, so
        # each cosine moves by at most 2 * eps / (smallest norm), in each run.
        smallest = min(math.hypot(*v) for v in vecs)
        tol = 4 * HIDDEN_NORM_EPS / (min(scale, 1) * smallest)
        assert scaled == pytest.approx(base, abs=tol)

    @given(st.lists(st.lists(st.floats(min_value=-5, max_value=5), min_size=4, max_size=4),
                    min_size=2, max_size=8),
           st.permutations(range(4)))
    @settings(max_examples=300)
    def test_coordinate_permutation_is_bit_identical(self, vecs, order):
        # fsum is exactly rounded, so the order of a vector's entries cannot
        # change its norm or any cosine.
        permuted = [[v[i] for i in order] for v in vecs]
        assert hidden_stability(permuted) == hidden_stability(vecs)

    def test_matches_brute_force_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n, d = rng.integers(2, 10), rng.integers(1, 6)
            vecs = rng.normal(size=(n, d))
            normed = [v / (np.linalg.norm(v) + 1e-8) for v in vecs]
            expected = np.mean([a @ b for a, b in zip(normed, normed[1:])])
            assert hidden_stability(vecs) == pytest.approx(expected, abs=1e-12)


class TestStepSignals:
    def test_requires_exactly_one_of_entropy_and_distribution(self):
        with pytest.raises(InvalidInputError):
            StepSignals(chunk_text="x", tokens_in_chunk=1)
        with pytest.raises(InvalidInputError):
            StepSignals(chunk_text="x", tokens_in_chunk=1, entropy=1.0,
                        distribution=[0.5, 0.5])

    def test_non_finite_entropy_rejected(self):
        with pytest.raises(InvalidInputError):
            StepSignals(chunk_text="x", tokens_in_chunk=1, entropy=float("nan"))

    @pytest.mark.parametrize("tokens", [0, -3])
    def test_fewer_than_one_token_rejected(self, tokens):
        with pytest.raises(InvalidInputError, match=f"tokens must be >= 1, got {tokens}"):
            StepSignals(chunk_text="x", tokens_in_chunk=tokens, entropy=1.0)

    def test_equality_compares_vectors_by_float64_bytes(self):
        a, b = read_trace(NAN_HIDDEN_TRACE)[1], read_trace(NAN_HIDDEN_TRACE)[1]
        assert a[0] == b[0] and a == b
        i = next(i for i, step in enumerate(a)
                 if step.hidden is not None and np.isnan(step.hidden).any())
        assert a[i] == b[i]  # NaN equals NaN
        changed = array("d", a[i].hidden)
        changed[0] += 1.0
        assert dataclasses.replace(a[i], hidden=changed) != b[i]
        as_list = StepSignals(chunk_text="x", tokens_in_chunk=1, distribution=[0.5, 0.5],
                              hidden=[1.0, float("nan")])
        as_array = StepSignals(chunk_text="x", tokens_in_chunk=1,
                               distribution=np.array([0.5, 0.5]),
                               hidden=np.array([1.0, float("nan")]))
        assert as_list == as_array and hash(as_list) == hash(as_array)


# Chunks that are short, whitespace-padded or repeated, so that every trace
# stability case occurs; hidden vectors include zero and anti-parallel ones.
CHUNKS = st.one_of(
    st.sampled_from(["abcdefgh", "  abcdefgh\n", "\tabcdefgh ", "ijklmnopq", "hi", "", " "]),
    st.text(alphabet="ab \n", max_size=12),
)
BASE = (0.6, -0.8, 0.0)
HIDDEN_VECTORS = st.one_of(
    st.sampled_from([BASE, tuple(-x for x in BASE), (0.0, 0.0, 0.0), (2.0, 0.0, -1.0)]),
    st.tuples(*[st.floats(min_value=-5, max_value=5)] * 3),
)
HIDDEN = st.one_of(st.none(), HIDDEN_VECTORS)
STEPS = st.lists(st.tuples(st.floats(min_value=0, max_value=12), CHUNKS, HIDDEN), max_size=25)


def _step(h, chunk, hidden):
    return StepSignals(chunk_text=chunk, tokens_in_chunk=1, entropy=h, hidden=hidden)


def _outcome(fn):
    try:
        return fn()
    except InvalidInputError as exc:
        return str(exc)


def oracle_readout(step_entropy, chunks, hiddens):
    raw = oracle_hidden_stability(hiddens)
    return SignalReadout(step_entropy, brute_force_trace_stability(chunks),
                         min(max(raw, 0.0), 1.0), raw)


class TestRunningSignals:
    @given(STEPS)
    @settings(max_examples=300, deadline=None)
    def test_equals_batch_readout_at_every_prefix(self, steps):
        running = RunningSignals()
        chunks, hiddens = [], []
        for h, chunk, hidden in steps:
            chunks.append(chunk)
            if hidden is not None:
                hiddens.append(hidden)
            assert running.push(_step(h, chunk, hidden)) == oracle_readout(h, chunks, hiddens)

    @given(st.lists(st.tuples(CHUNKS, st.one_of(
        HIDDEN, st.sampled_from([(float("nan"), 1.0, 0.0), (1.0, 0.0), ((1.0, 0.0, 0.0),),
                                 np.array(1.0), np.ones((3, 1)), (1e154, 1e154, 0.0),
                                 (1e200, 0.0, 0.0), (1e200, 0.0)]))),
        max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_malformed_hidden_fails_at_the_same_prefix(self, steps):
        running = RunningSignals()
        chunks, hiddens = [], []
        for chunk, hidden in steps:
            chunks.append(chunk)
            if hidden is not None:
                hiddens.append(hidden)
            expected = _outcome(lambda: oracle_readout(1.0, chunks, hiddens))
            assert _outcome(lambda: running.push(_step(1.0, chunk, hidden))) == expected
            if isinstance(expected, str):
                break

    @given(STEPS, st.lists(st.integers(min_value=0, max_value=25), min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_steps_shared_by_cells_give_the_oracle_readouts(self, steps, lengths):
        # Several RunningSignals may read the same step objects, as a replay's
        # pass and the copy a split cell goes on with do; none may change a bit.
        shared = [_step(*step) for step in steps]
        for n in lengths:
            running = RunningSignals()
            chunks, hiddens = [], []
            for (h, chunk, hidden), step in zip(steps[:n], shared):
                chunks.append(chunk)
                if hidden is not None:
                    hiddens.append(hidden)
                assert running.push(step) == oracle_readout(h, chunks, hiddens)

    def test_a_stream_frees_its_past_steps(self):
        # RunningSignals holds no step, so a step no one else holds is freed once
        # it is pushed, as in a live or simulated stream.
        running, alive = RunningSignals(), []
        for i in range(20):
            step = _step(1.0, "x", (math.cos(i), math.sin(i), 0.0))
            alive.append(weakref.ref(step))
            running.push(step)
            del step
        assert sum(ref() is not None for ref in alive) == 0

    def test_entropy_from_distribution(self):
        step = StepSignals(chunk_text="x", tokens_in_chunk=1, distribution=[0.25] * 4)
        assert RunningSignals().push(step).entropy == pytest.approx(math.log(4), rel=1e-12)

    def test_invalid_distribution_raises_on_every_push(self):
        running = RunningSignals()
        step = StepSignals(chunk_text="x", tokens_in_chunk=1, distribution=[0.5, 0.4])
        for _ in range(2):
            with pytest.raises(InvalidDistributionError):
                running.push(step)

    @pytest.mark.parametrize("hidden,message", [
        ((1.0, float("nan")), "non-finite"),
        # Finite entries whose squares sum past float64 range: fsum overflows on
        # the first, and the second once read as a zero vector.
        ((1e154, 1e154), "squared norm overflows"),
        ((1e200, 0.0), "squared norm overflows"),
        # A non-finite entry names itself, even where the sum overflows first.
        ((float("nan"), 1e154, 1e154), "non-finite"),
        (((1.0, 0.0),), "one dimension"),
        (np.array(5.0), "one dimension"),
        (np.ones((3, 1)), "one dimension"),
    ])
    def test_invalid_hidden_raises_on_every_read(self, hidden, message):
        # Read once a second vector arrives, in either position of the pair.
        for hiddens in ([hidden, (1.0, 0.0)], [(1.0, 0.0), hidden]):
            with pytest.raises(InvalidInputError, match=message):
                hidden_stability(hiddens)
        running = RunningSignals()
        assert running.push(_step(1.0, "x", hidden)).hidden_stability_raw == 1.0
        for _ in range(2):
            with pytest.raises(InvalidInputError, match=message):
                running.push(_step(1.0, "x", (1.0, 0.0)))

    def test_anti_parallel_raw_is_clipped(self):
        running = RunningSignals()
        running.push(_step(1.0, "a", BASE))
        readout = running.push(_step(1.0, "b", tuple(-x for x in BASE)))
        assert readout.hidden_stability_raw < 0
        assert readout.hidden_stability == 0.0

    @given(st.floats(min_value=0, max_value=12), st.lists(CHUNKS, max_size=12),
           st.lists(HIDDEN_VECTORS, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_from_histories_of_unequal_lengths(self, h, chunks, hiddens):
        # Chunks and hidden vectors pair by position; the shorter list runs out first.
        assume(len(chunks) != len(hiddens))
        assert SignalReadout.from_histories(h, chunks, hiddens) == oracle_readout(
            h, chunks, hiddens)
