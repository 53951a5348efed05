"""Tests for deterministic RNG streams and the value hash."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.rng import (
    RngStream,
    WeightedChoice,
    derive_seed,
    hash_to_unit_float,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")

    def test_name_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_root_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")


class TestRngStream:
    def test_same_name_same_sequence(self):
        a = RngStream("x", root_seed=7)
        b = RngStream("x", root_seed=7)
        assert [a.uniform() for _ in range(5)] == [
            b.uniform() for _ in range(5)
        ]

    def test_different_names_differ(self):
        a = RngStream("x", root_seed=7)
        b = RngStream("y", root_seed=7)
        assert [a.uniform() for _ in range(5)] != [
            b.uniform() for _ in range(5)
        ]

    def test_child_streams_independent(self):
        parent = RngStream("p", root_seed=7)
        child = parent.child("c")
        before = parent.uniform()
        # drawing from the child must not perturb the parent
        parent2 = RngStream("p", root_seed=7)
        parent2.child("c")
        assert before == parent2.uniform()
        assert child.name == "p/c"

    def test_integers_range(self):
        stream = RngStream("ints")
        for _ in range(100):
            value = stream.integers(3, 9)
            assert 3 <= value < 9

    def test_choice_weights(self):
        stream = RngStream("choice")
        values = [stream.choice(["a", "b"], p=[1.0, 0.0]) for _ in range(20)]
        assert set(values) == {"a"}

    def test_shuffle_permutation(self):
        stream = RngStream("shuffle")
        items = list(range(20))
        shuffled = list(items)
        stream.shuffle(shuffled)
        assert sorted(shuffled) == items


class TestNumpyStreamIdentity:
    """``RngStream`` draws are ``Generator`` draws: the same values, in the
    same order, consuming the same stream, as calling numpy directly."""

    WEIGHTS = [10, 14, 3, 3, 0, 8, 1, 2, 5]
    ITEMS = [f"m{index}" for index in range(len(WEIGHTS))]

    def test_interleaved_draws_match_generator(self):
        total = sum(self.WEIGHTS)
        p = [weight / total for weight in self.WEIGHTS]
        table = WeightedChoice(self.ITEMS, p)
        uneven = [0.5, 0.25, 0.125, 0.0625, 0.0625]
        uneven_table = WeightedChoice("abcde", uneven)
        stream = RngStream("identity", root_seed=11)
        numpy_gen = np.random.Generator(np.random.PCG64(stream.seed))
        plan = np.random.default_rng(3).integers(0, 7, size=12_000)
        for step, kind in enumerate(plan.tolist()):
            size = step % 37 + 1
            if kind == 0:
                got = stream.choice(range(size))
                want = int(numpy_gen.choice(size))
            elif kind == 1:
                got = stream.draw(table)
                want = self.ITEMS[int(numpy_gen.choice(len(p), p=p))]
            elif kind == 2:
                got = stream.choice("abcde", p=uneven)
                want = "abcde"[int(numpy_gen.choice(5, p=uneven))]
            elif kind == 3:
                got = stream.draw(uneven_table)
                want = "abcde"[int(numpy_gen.choice(5, p=uneven))]
            elif kind == 4:
                got = stream.integers(-size, size)
                want = int(numpy_gen.integers(-size, size))
            elif kind == 5:
                got = stream.uniform()
                want = float(numpy_gen.uniform(0.0, 1.0))
            else:
                got = stream.uniform(-3.0, size)
                want = float(numpy_gen.uniform(-3.0, size))
            assert got == want, (step, kind)
        # the two streams are still in lockstep afterwards
        assert stream.uniform() == numpy_gen.uniform()

    @pytest.mark.parametrize("p", [
        [0.5, 0.6],                          # sum is not 1
        [0.5],                               # wrong length
        [0.5, 0.25, 0.25],                   # wrong length
        [[0.5, 0.5]],                        # not 1-dimensional
        [float("nan"), 1.0],                 # NaN
        [1.5, -0.5],                         # negative entry
        [float("inf"), 0.0],                 # infinite sum
        ["a", "b"],                          # not numbers
        np.array([0.5, 0.5 + 1e-3], dtype=np.float32),
        [0.5, 0.5 + 1e-5],
    ])
    def test_invalid_p_raises_as_numpy(self, p):
        with pytest.raises(ValueError) as numpy_error:
            np.random.default_rng(0).choice(2, p=p)
        with pytest.raises(ValueError) as ours:
            WeightedChoice("xy", p)
        assert str(ours.value) == str(numpy_error.value)
        with pytest.raises(ValueError):
            RngStream("bad").choice("xy", p=p)

    @pytest.mark.parametrize("p", [
        [0.5, 0.5 + 1e-9],                   # within numpy's tolerance
        np.array([0.3, 0.7], dtype=np.float32),
        # float32 input gets float32's looser tolerance, as in numpy
        np.array([0.5, 0.5 + 1e-5], dtype=np.float32),
        [1.0, 0.0],
    ])
    def test_valid_p_accepted_as_numpy(self, p):
        np.random.default_rng(0).choice(2, p=p)
        WeightedChoice("xy", p)

    def test_empty_sequence(self):
        with pytest.raises(ValueError):
            RngStream("empty").choice([])
        with pytest.raises(ValueError, match="positive integer"):
            WeightedChoice([], [])


class TestHashToUnitFloat:
    def test_range_and_determinism(self):
        value = hash_to_unit_float("a", 1, 2)
        assert 0.0 <= value < 1.0
        assert value == hash_to_unit_float("a", 1, 2)

    def test_sensitivity(self):
        assert hash_to_unit_float("a", 1) != hash_to_unit_float("a", 2)

    @given(st.integers(), st.integers())
    def test_always_in_unit_interval(self, a, b):
        value = hash_to_unit_float(a, b)
        assert 0.0 <= value < 1.0

    def test_rough_uniformity(self):
        samples = [hash_to_unit_float("u", i) for i in range(2000)]
        mean = sum(samples) / len(samples)
        assert 0.45 < mean < 0.55
        low = sum(1 for s in samples if s < 0.5)
        assert 900 < low < 1100
