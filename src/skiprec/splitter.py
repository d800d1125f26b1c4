"""Frame grouping driven by per-frame blank flags.

Given boolean flags (True = blank-dominated frame), frames are sorted into
three groups: crucial frames continue through the second encoder stage,
trivial frames are carried around it and merged back, ignoring frames are
dropped. The five grouping modes differ in how blank frames adjacent to
non-blank runs are treated; "adjacent" means the nearest blank on each side
of every non-blank frame, with edges contributing nothing when no blank
exists on that side. All index containers are ascending tuples.

A batch is grouped packed: its flags lie one utterance after another, an
index is a packed row, and no adjacency crosses an utterance boundary, so
one pass groups the whole batch and each utterance's slice of the groups,
shifted to its first row, is what its flags alone give.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from . import autodiff as ad
from .encoder import EncodedSequence
from .errors import ContractError, ParameterError


class SplitMode(IntEnum):
    KEEP_ALL = 1          # crucial = non-blank, trivial = every blank
    CARRY_RIGHT = 2       # crucial = non-blank, trivial = right-adjacent blanks
    ABSORB_RIGHT = 3      # crucial = non-blank + right-adjacent, rest dropped
    ABSORB_LEFT = 4       # crucial = left-adjacent + non-blank, rest dropped
    ABSORB_BOTH = 5       # crucial = left-adjacent + non-blank + right-adjacent


@dataclass(frozen=True)
class BoundarySets:
    """Index sets derived from the flags alone."""

    non_blank: tuple[int, ...]
    blank: tuple[int, ...]
    left_adjacent: tuple[int, ...]   # nearest blank left of each non-blank frame
    right_adjacent: tuple[int, ...]  # nearest blank right of each non-blank frame


@dataclass(frozen=True)
class FrameGroups:
    sets: BoundarySets
    crucial: tuple[int, ...]
    trivial: tuple[int, ...]
    ignoring: tuple[int, ...]


def compute_sets(flags, lengths=None) -> BoundarySets:
    """Derive the four index sets from per-frame blank flags.

    ``lengths`` splits packed flags into utterances, one after another; no
    set reaches across an utterance boundary. The nearest blank left of a
    non-blank frame is the blank just before a run of non-blank frames, so
    the left-adjacent blanks are those followed by a non-blank frame and the
    right-adjacent ones those preceded by one.
    """
    flags = np.asarray(flags, dtype=bool)
    n = flags.shape[0]
    same = np.ones(max(n - 1, 0), dtype=bool)   # frames i and i + 1 share an utterance
    if lengths is not None:
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.sum() != n or np.any(lengths <= 0):
            raise ContractError(f"lengths {tuple(lengths.tolist())} do not split {n} flags")
        same[np.cumsum(lengths)[:-1] - 1] = False
    step = same & (flags[:-1] != flags[1:])
    return BoundarySets(
        non_blank=tuple(np.flatnonzero(~flags).tolist()),
        blank=tuple(np.flatnonzero(flags).tolist()),
        left_adjacent=tuple(np.flatnonzero(step & flags[:-1]).tolist()),
        right_adjacent=tuple((np.flatnonzero(step & flags[1:]) + 1).tolist()),
    )


def assign_groups(sets: BoundarySets, mode: SplitMode | int) -> FrameGroups:
    """Partition all frame indices into (crucial, trivial, ignoring)."""
    try:
        mode = SplitMode(mode)
    except ValueError:
        raise ParameterError(f"split mode must be in 1..5, got {mode}")
    c = set(sets.non_blank)
    b = set(sets.blank)
    left = set(sets.left_adjacent)
    right = set(sets.right_adjacent)
    if mode is SplitMode.KEEP_ALL:
        crucial, trivial, ignoring = c, b, set()
    elif mode is SplitMode.CARRY_RIGHT:
        crucial, trivial, ignoring = c, right, b - right
    elif mode is SplitMode.ABSORB_RIGHT:
        crucial, trivial, ignoring = c | right, set(), b - right
    elif mode is SplitMode.ABSORB_LEFT:
        crucial, trivial, ignoring = left | c, set(), b - left
    else:
        crucial, trivial, ignoring = left | c | right, set(), b - right - left
    return FrameGroups(
        sets=sets,
        crucial=tuple(sorted(crucial)),
        trivial=tuple(sorted(trivial)),
        ignoring=tuple(sorted(ignoring)),
    )


def split_frames(seq: EncodedSequence, groups: FrameGroups
                 ) -> tuple[EncodedSequence, EncodedSequence]:
    """Gather crucial and trivial rows into two sequences; ignoring rows drop out.

    ``groups`` indexes the rows of ``seq``, which may pack several
    utterances. Each output packs the gathered rows in the same order, as
    one gather each, and its lengths count the rows of each utterance.
    """
    rows = [np.asarray(g, dtype=np.int64) for g in (groups.crucial, groups.trivial)]
    for idx in rows:
        if idx.size and (idx.min() < 0 or idx.max() >= seq.length):
            bad = idx.min() if idx.min() < 0 else idx.max()
            raise ContractError(f"group index {int(bad)} outside sequence of length {seq.length}")
    utt = np.repeat(np.arange(len(seq.lengths)), seq.lengths)

    def gather(idx: np.ndarray) -> EncodedSequence:
        return EncodedSequence(
            frames=ad.gather_rows(seq.frames, idx),
            orig_index=seq.orig_index[idx],
            lengths=tuple(np.bincount(utt[idx], minlength=len(seq.lengths)).tolist()),
        )

    return gather(rows[0]), gather(rows[1])
