"""Frame grouping driven by per-frame blank flags.

Given boolean flags (True = blank-dominated frame), frames are sorted into
three groups: crucial frames continue through the second encoder stage,
trivial frames are carried around it and merged back, ignoring frames are
dropped. The five grouping modes differ in how blank frames adjacent to
non-blank runs are treated; "adjacent" means the nearest blank on each side
of every non-blank frame, with edges contributing nothing when no blank
exists on that side. All index containers are ascending tuples.
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


def compute_sets(flags) -> BoundarySets:
    """Derive the four index sets from per-frame blank flags."""
    flags = np.asarray(flags, dtype=bool)
    n = flags.shape[0]
    non_blank = tuple(int(i) for i in np.flatnonzero(~flags))
    blank = tuple(int(i) for i in np.flatnonzero(flags))

    # prev_blank[i] / next_blank[i]: nearest blank strictly before / after i.
    prev_blank = np.full(n, -1, dtype=np.int64)
    last = -1
    for i in range(n):
        prev_blank[i] = last
        if flags[i]:
            last = i
    next_blank = np.full(n, -1, dtype=np.int64)
    nxt = -1
    for i in range(n - 1, -1, -1):
        next_blank[i] = nxt
        if flags[i]:
            nxt = i

    left = {int(prev_blank[c]) for c in non_blank if prev_blank[c] >= 0}
    right = {int(next_blank[c]) for c in non_blank if next_blank[c] >= 0}
    return BoundarySets(
        non_blank=non_blank,
        blank=blank,
        left_adjacent=tuple(sorted(left)),
        right_adjacent=tuple(sorted(right)),
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


def split_frames(seq: EncodedSequence, *groups: FrameGroups
                 ) -> tuple[EncodedSequence, EncodedSequence]:
    """Gather crucial and trivial rows into two sequences; ignoring rows drop out.

    ``groups`` holds one FrameGroups per utterance packed in ``seq``, with
    indices local to that utterance. Each output packs the utterances'
    rows in the same order, as one gather each.
    """
    lengths = seq.lengths
    if len(groups) != len(lengths):
        raise ContractError(f"{len(groups)} frame groups for {len(lengths)} packed sequences")
    starts = np.cumsum(lengths) - np.asarray(lengths)
    picked = {"crucial": [], "trivial": []}
    for start, n, g in zip(starts, lengths, groups):
        for name, rows in picked.items():
            idx = np.asarray(getattr(g, name), dtype=np.int64)
            if idx.size and (idx.min() < 0 or idx.max() >= n):
                bad = idx.min() if idx.min() < 0 else idx.max()
                raise ContractError(f"group index {int(bad)} outside sequence of length {n}")
            rows.append(start + idx)

    def gather(rows: list[np.ndarray]) -> EncodedSequence:
        idx = np.concatenate(rows)
        return EncodedSequence(
            frames=ad.gather_rows(seq.frames, idx),
            orig_index=seq.orig_index[idx],
            lengths=tuple(r.size for r in rows),
        )

    return gather(picked["crucial"]), gather(picked["trivial"])
