"""Frame grouping driven by per-frame blank flags.

Given boolean flags (True = blank-dominated frame), frames are sorted into
three groups: crucial frames continue through the second encoder stage,
trivial frames are carried around it and merged back, ignoring frames are
dropped. The five grouping modes differ in how blank frames adjacent to
non-blank runs are treated; "adjacent" means the nearest blank on each side
of every non-blank frame, with edges contributing nothing when no blank
exists on that side. Every index container is an ascending 1-D int64 array,
the ``nonzero`` of a boolean mask, from the flags to the gathers.

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


@dataclass(frozen=True, eq=False)
class BoundarySets:
    """Index arrays derived from the flags alone; compared by identity, as arrays."""

    non_blank: np.ndarray
    blank: np.ndarray
    left_adjacent: np.ndarray   # nearest blank left of each non-blank frame
    right_adjacent: np.ndarray  # nearest blank right of each non-blank frame


@dataclass(frozen=True, eq=False)
class FrameGroups:
    sets: BoundarySets
    crucial: np.ndarray
    trivial: np.ndarray
    ignoring: np.ndarray


def compute_sets(flags, lengths=None) -> BoundarySets:
    """Derive the four index arrays from per-frame blank flags.

    ``lengths`` splits packed flags into utterances, one after another; no
    set reaches across an utterance boundary. The nearest blank left of a
    non-blank frame is the blank just before a run of non-blank frames, so
    the left-adjacent blanks are those followed by a non-blank frame and the
    right-adjacent ones those preceded by one.
    """
    flags = np.asarray(flags, dtype=bool)
    n = flags.shape[0]
    step = flags[:-1] != flags[1:]   # frames i and i + 1 differ
    if lengths is not None:
        sizes = np.asarray(lengths, dtype=np.int64)
        if sizes.sum() != n or np.any(sizes <= 0):
            raise ContractError(f"lengths {lengths} do not split {n} flags")
        step[np.cumsum(sizes)[:-1] - 1] = False   # no step crosses an utterance boundary
    return BoundarySets(
        non_blank=(~flags).nonzero()[0],
        blank=flags.nonzero()[0],
        left_adjacent=(step & flags[:-1]).nonzero()[0],
        right_adjacent=(step & flags[1:]).nonzero()[0] + 1,
    )


def assign_groups(sets: BoundarySets, mode: SplitMode | int) -> FrameGroups:
    """Partition all frame indices into (crucial, trivial, ignoring)."""
    try:
        mode = SplitMode(mode)
    except ValueError:
        raise ParameterError(f"split mode must be in 1..5, got {mode}")
    n = sets.non_blank.size + sets.blank.size
    crucial, trivial = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    crucial[sets.non_blank] = True
    if mode is SplitMode.KEEP_ALL:
        trivial[sets.blank] = True
    elif mode is SplitMode.CARRY_RIGHT:
        trivial[sets.right_adjacent] = True
    elif mode is SplitMode.ABSORB_RIGHT:
        crucial[sets.right_adjacent] = True
    elif mode is SplitMode.ABSORB_LEFT:
        crucial[sets.left_adjacent] = True
    else:
        crucial[sets.left_adjacent] = crucial[sets.right_adjacent] = True
    # Non-blank frames are always crucial, so the frames left over are blanks.
    return FrameGroups(sets=sets, crucial=crucial.nonzero()[0], trivial=trivial.nonzero()[0],
                       ignoring=(~(crucial | trivial)).nonzero()[0])


def split_frames(seq: EncodedSequence, groups: FrameGroups
                 ) -> tuple[EncodedSequence, EncodedSequence]:
    """Gather crucial and trivial rows into two sequences; ignoring rows drop out.

    ``groups`` indexes the rows of ``seq``, which may pack several
    utterances. Each output packs the gathered rows in the same order, as
    one gather each, and its lengths count the rows of each utterance.
    """
    for idx in (groups.crucial, groups.trivial):
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

    return gather(groups.crucial), gather(groups.trivial)
