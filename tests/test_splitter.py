import itertools

import numpy as np
import pytest

from skiprec import autodiff as ad
from skiprec import splitter
from skiprec.encoder import EncodedSequence
from skiprec.errors import ContractError, ParameterError
from skiprec.splitter import SplitMode

from support import sum_all, tensor


def brute_sets(flags):
    """Nearest-blank bookkeeping by direct per-frame scan."""
    n = len(flags)
    c = {i for i in range(n) if not flags[i]}
    b = {i for i in range(n) if flags[i]}
    left = set()
    right = set()
    for i in c:
        for j in range(i - 1, -1, -1):
            if flags[j]:
                left.add(j)
                break
        for j in range(i + 1, n):
            if flags[j]:
                right.add(j)
                break
    return c, b, left, right


def brute_groups(flags, mode):
    c, b, left, right = brute_sets(flags)
    if mode == 1:
        crucial, trivial = c, b
    elif mode == 2:
        crucial, trivial = c, right
    elif mode == 3:
        crucial, trivial = c | right, set()
    elif mode == 4:
        crucial, trivial = c | left, set()
    elif mode == 5:
        crucial, trivial = c | left | right, set()
    else:
        raise ValueError(mode)
    ignoring = set(range(len(flags))) - crucial - trivial
    return sorted(crucial), sorted(trivial), sorted(ignoring)


WORKED_FLAGS = [True, False, False, True, True, False, True]
SET_FIELDS = ("non_blank", "blank", "left_adjacent", "right_adjacent")


def set_lists(sets):
    """The four index arrays of ``sets`` as lists, to compare by value."""
    return [getattr(sets, name).tolist() for name in SET_FIELDS]


def rows(*idx):
    return np.array(idx, dtype=np.int64)


class TestComputeSets:
    def test_worked_example(self):
        sets = splitter.compute_sets(WORKED_FLAGS)
        assert set(sets.non_blank) == {1, 2, 5}
        assert set(sets.blank) == {0, 3, 4, 6}
        assert set(sets.left_adjacent) == {0, 4}
        assert set(sets.right_adjacent) == {3, 6}

    def test_all_blank(self):
        sets = splitter.compute_sets([True] * 5)
        assert sets.non_blank.tolist() == []
        assert sets.left_adjacent.tolist() == [] and sets.right_adjacent.tolist() == []
        assert set(sets.blank) == set(range(5))

    def test_all_non_blank(self):
        sets = splitter.compute_sets([False] * 5)
        assert sets.blank.tolist() == []
        assert sets.left_adjacent.tolist() == [] and sets.right_adjacent.tolist() == []
        assert set(sets.non_blank) == set(range(5))

    def test_empty(self):
        sets = splitter.compute_sets([])
        assert sets.non_blank.tolist() == [] and sets.blank.tolist() == []

    def test_edge_frames_have_no_outside_neighbor(self):
        # non-blank at both edges: no left blank for the first, no right for the last
        sets = splitter.compute_sets([False, True, False])
        assert set(sets.left_adjacent) == {1}
        assert set(sets.right_adjacent) == {1}


class TestAssignGroups:
    def test_worked_example_mode2(self):
        g = splitter.assign_groups(splitter.compute_sets(WORKED_FLAGS), SplitMode.CARRY_RIGHT)
        assert list(g.crucial) == [1, 2, 5]
        assert list(g.trivial) == [3, 6]
        assert list(g.ignoring) == [0, 4]

    def test_worked_example_mode1(self):
        g = splitter.assign_groups(splitter.compute_sets(WORKED_FLAGS), SplitMode.KEEP_ALL)
        assert list(g.crucial) == [1, 2, 5]
        assert list(g.trivial) == [0, 3, 4, 6]
        assert list(g.ignoring) == []

    def test_worked_example_mode5(self):
        g = splitter.assign_groups(splitter.compute_sets(WORKED_FLAGS), SplitMode.ABSORB_BOTH)
        assert list(g.crucial) == [0, 1, 2, 3, 4, 5, 6]
        assert list(g.trivial) == []
        assert list(g.ignoring) == []

    def test_bad_mode(self):
        with pytest.raises(ParameterError):
            splitter.assign_groups(splitter.compute_sets([True, False]), 6)

    @pytest.mark.parametrize("mode", [1, 2, 3, 4, 5])
    def test_brute_force_short_lengths(self, mode):
        for n in range(0, 9):
            for bits in itertools.product([False, True], repeat=n):
                g = splitter.assign_groups(splitter.compute_sets(list(bits)), mode)
                assert (list(g.crucial), list(g.trivial), list(g.ignoring)) \
                    == brute_groups(list(bits), mode), (bits, mode)

    def test_brute_force_sampled_long(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(9, 40))
            flags = list(rng.random(n) < 0.6)
            mode = int(rng.integers(1, 6))
            g = splitter.assign_groups(splitter.compute_sets(flags), mode)
            assert (list(g.crucial), list(g.trivial), list(g.ignoring)) \
                == brute_groups(flags, mode)


class TestPartitionProperties:
    @pytest.mark.parametrize("mode", [1, 2, 3, 4, 5])
    def test_partition_random(self, mode):
        rng = np.random.default_rng(mode)
        for _ in range(500):
            n = int(rng.integers(0, 30))
            flags = list(rng.random(n) < rng.random())
            g = splitter.assign_groups(splitter.compute_sets(flags), mode)
            parts = [set(g.crucial), set(g.trivial), set(g.ignoring)]
            assert parts[0] | parts[1] | parts[2] == set(range(n))
            assert not (parts[0] & parts[1] or parts[0] & parts[2] or parts[1] & parts[2])
            for lst in (g.crucial, g.trivial, g.ignoring):
                assert list(lst) == sorted(lst)

    def test_structural_set_relations(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(1, 25))
            flags = list(rng.random(n) < 0.5)
            sets = splitter.compute_sets(flags)
            by_mode = {m: splitter.assign_groups(sets, m) for m in range(1, 6)}
            assert list(by_mode[1].ignoring) == []
            for m in (3, 4, 5):
                assert list(by_mode[m].trivial) == []
            assert by_mode[1].crucial.tolist() == by_mode[2].crucial.tolist()
            c = {m: set(by_mode[m].crucial) for m in range(1, 6)}
            assert c[2] <= c[3] <= c[5]
            assert c[2] <= c[4] <= c[5]


class TestPackedSets:
    """Packed flags give each utterance's own sets, shifted to its first row."""

    @staticmethod
    def shifted(flags, lengths):
        starts = np.cumsum(lengths) - np.asarray(lengths)
        pieces = [splitter.compute_sets(flags[s:s + n]) for s, n in zip(starts, lengths)]
        return [[int(s) + i for s, p in zip(starts, pieces) for i in getattr(p, name).tolist()]
                for name in SET_FIELDS]

    def test_random_ragged_batches_match_per_utterance_sets(self):
        rng = np.random.default_rng(11)
        crossings = set()   # (last flag of an utterance, first flag of the next)
        for _ in range(300):
            lengths = tuple(int(n) for n in rng.integers(1, 9, size=int(rng.integers(1, 6))))
            flags = rng.random(sum(lengths)) < 0.5
            assert set_lists(splitter.compute_sets(flags, lengths)) == self.shifted(flags, lengths)
            ends = np.cumsum(lengths)[:-1]
            crossings |= set(zip(flags[ends - 1].tolist(), flags[ends].tolist()))
        # A blank ending one utterance before a non-blank starting the next,
        # and the reverse, both of which an unsplit scan would call adjacent.
        assert {(True, False), (False, True)} <= crossings

    @pytest.mark.parametrize("lengths", [(3, 3), (2, 1), (3, 0, 2), (6, -1), ()])
    def test_lengths_that_do_not_split_the_flags_are_rejected(self, lengths):
        with pytest.raises(ContractError):
            splitter.compute_sets([True, False, True, False, True], lengths)


class TestIndexArrays:
    """Every set and group is an ascending 1-D int64 index array, from the flags on."""

    @staticmethod
    def assert_index_arrays(obj, names):
        for name in names:
            idx = getattr(obj, name)
            assert isinstance(idx, np.ndarray) and idx.ndim == 1, name
            assert idx.dtype == np.int64, (name, idx.dtype)
            assert np.all(np.diff(idx) > 0), name

    @pytest.mark.parametrize("mode", [1, 2, 3, 4, 5])
    def test_sets_and_groups_are_ascending_int64_arrays(self, mode):
        rng = np.random.default_rng(21 + mode)
        cases = [([], None), ([True] * 4, None), ([False] * 4, None), (WORKED_FLAGS, None)]
        for _ in range(50):
            lengths = tuple(int(n) for n in rng.integers(1, 9, size=int(rng.integers(1, 5))))
            cases.append((rng.random(sum(lengths)) < rng.random(), lengths))
        for flags, lengths in cases:
            sets = splitter.compute_sets(flags, lengths)
            self.assert_index_arrays(sets, SET_FIELDS)
            groups = splitter.assign_groups(sets, mode)
            assert groups.sets is sets
            self.assert_index_arrays(groups, ("crucial", "trivial", "ignoring"))


class TestSplitFrames:
    def _seq(self, n, d=4, seed=0):
        rng = np.random.default_rng(seed)
        return EncodedSequence(frames=tensor(rng.normal(size=(n, d))),
                               orig_index=np.arange(n, dtype=np.int64))

    def test_gather_semantics(self):
        seq = self._seq(7)
        g = splitter.assign_groups(splitter.compute_sets(WORKED_FLAGS), SplitMode.CARRY_RIGHT)
        crucial, trivial = splitter.split_frames(seq, g)
        assert np.array_equal(crucial.frames.data, seq.frames.data[[1, 2, 5]])
        assert np.array_equal(trivial.frames.data, seq.frames.data[[3, 6]])
        assert list(crucial.orig_index) == [1, 2, 5]
        assert list(trivial.orig_index) == [3, 6]

    def test_empty_crucial(self):
        seq = self._seq(4)
        g = splitter.assign_groups(splitter.compute_sets([True] * 4), SplitMode.CARRY_RIGHT)
        crucial, trivial = splitter.split_frames(seq, g)
        assert crucial.length == 0
        assert trivial.length == 0

    def test_gather_gradient_indicator(self):
        seq = self._seq(7)
        g = splitter.assign_groups(splitter.compute_sets(WORKED_FLAGS), SplitMode.CARRY_RIGHT)
        with ad.tape() as tp:
            crucial, _ = splitter.split_frames(seq, g)
            tp.backward(sum_all(crucial.frames))
        grad = seq.frames.grad
        expect = np.zeros_like(grad)
        expect[[1, 2, 5]] = 1.0
        assert np.array_equal(grad, expect)

    def test_packed_sequences_split_as_one_gather_each(self):
        rng = np.random.default_rng(3)
        flags = [WORKED_FLAGS, [True] * 4, [False, True, True]]
        lengths = tuple(len(f) for f in flags)
        seq = EncodedSequence(frames=tensor(rng.normal(size=(sum(lengths), 4))),
                              orig_index=np.concatenate([np.arange(n) for n in lengths]),
                              lengths=lengths)
        groups = splitter.assign_groups(splitter.compute_sets(np.concatenate(flags), lengths),
                                        SplitMode.CARRY_RIGHT)
        with ad.tape() as tp:
            crucial, trivial = splitter.split_frames(seq, groups)
            assert len(tp) == 2
        starts = np.cumsum(lengths) - np.asarray(lengths)
        for out, name in ((crucial, "crucial"), (trivial, "trivial")):
            local = [np.asarray(getattr(splitter.assign_groups(splitter.compute_sets(f),
                                                               SplitMode.CARRY_RIGHT), name),
                                dtype=np.int64) for f in flags]
            rows = np.concatenate([s + idx for s, idx in zip(starts, local)])
            assert getattr(groups, name).tolist() == rows.tolist()
            assert out.lengths == tuple(idx.size for idx in local)
            assert np.array_equal(out.frames.data, seq.frames.data[rows])
            assert np.array_equal(out.orig_index, np.concatenate(local))

    def test_out_of_range_rejected(self):
        seq = self._seq(3)
        g = splitter.FrameGroups(
            sets=splitter.compute_sets([False] * 3),
            crucial=rows(0, 5), trivial=rows(), ignoring=rows(1, 2))
        with pytest.raises(ContractError):
            splitter.split_frames(seq, g)

    def test_negative_index_is_named(self):
        seq = self._seq(5)
        g = splitter.FrameGroups(
            sets=splitter.compute_sets([False] * 5),
            crucial=rows(-1, 2), trivial=rows(), ignoring=rows(0, 1, 3, 4))
        with pytest.raises(ContractError, match=r"group index -1 outside sequence of length 5"):
            splitter.split_frames(seq, g)

    def test_too_large_index_is_named(self):
        seq = self._seq(5)
        g = splitter.FrameGroups(
            sets=splitter.compute_sets([False] * 5),
            crucial=rows(1, 2), trivial=rows(7), ignoring=rows(0, 3, 4))
        with pytest.raises(ContractError, match=r"group index 7 outside sequence of length 5"):
            splitter.split_frames(seq, g)
