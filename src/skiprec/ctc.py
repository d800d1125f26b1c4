"""CTC head, alignment loss, decoding, and blank-dominance flags.

The loss lays out every utterance's blank-interleaved lattice states as one
blank-padded array and hands it to ``autodiff.lattice_nll``, one tape op
that runs the forward recursion in log space and replays it in reverse for
the gradient. A packed grid of several utterances is one op too: all its
lattices step as one array per frame. Blank is always class 0. Unreachable
lattice cells hold NEG_FILL rather than -inf to keep every array finite.

The prefix beam search (Hannun et al. 2014) is exact up to the beam width:
it prunes nothing else. Each frame is one vectorized step over a
(beam, vocabulary) array, and only the surviving prefixes are sorted in
Python.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import NEG_FILL, Parameter, Tensor
from .encoder import EncodedSequence, _glorot
from .errors import (ContractError, DimensionError, InfeasibleAlignmentError,
                     ParameterError)

BLANK_ID = 0


@dataclass
class PosteriorGrid:
    """Per-frame log posteriors over the vocabulary, blank in column 0."""

    log_probs: Tensor  # (L, V)

    @property
    def length(self) -> int:
        return self.log_probs.data.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.log_probs.data.shape[1]


@dataclass
class HeadParams:
    w: Parameter  # (D, V)
    b: Parameter


def init_head(rng: np.random.Generator, d_model: int, vocab_size: int) -> HeadParams:
    return HeadParams(
        w=Parameter(_glorot(rng, d_model, vocab_size)),
        b=Parameter(np.zeros(vocab_size)),
    )


def posterior_grid(seq: EncodedSequence, head: HeadParams) -> PosteriorGrid:
    logits = ad.affine(seq.frames, head.w.value, head.b.value)
    return PosteriorGrid(log_probs=ad.log_softmax_rows(logits))


def check_tokens(tokens, vocab_size: int) -> list[int]:
    """Validate a token sequence: integer ids in [1, vocab), never blank."""
    try:
        out = [int(t) for t in tokens]
    except TypeError:
        raise ContractError(f"expected a sequence of token ids, got {tokens!r}") from None
    for t in out:
        if t < 1 or t >= vocab_size:
            raise ContractError(f"token id {t} outside [1, {vocab_size})")
    return out


def min_frames(tokens) -> int:
    """Fewest frames that can spell the sequence: length plus forced blanks."""
    tokens = list(tokens)
    repeats = sum(1 for a, b in zip(tokens, tokens[1:]) if a == b)
    return len(tokens) + repeats


def ctc_loss(grid: PosteriorGrid, token_seqs, lengths) -> Tensor:
    """Negative log probability of all alignments spelling each token sequence.

    The grid packs consecutive utterances of ``lengths`` frames, one
    sequence of ``token_seqs`` each; a lone utterance is ``[tokens], [T]``.
    The result is the sum of their losses: one lattice op for the whole
    grid, equal to the bit to the sum of one call per utterance.
    """
    token_seqs, lengths = list(token_seqs), [int(n) for n in lengths]
    if len(token_seqs) != len(lengths):
        raise ContractError(f"{len(token_seqs)} token sequences for "
                            f"{len(lengths)} utterances")
    for i, (n, seq) in enumerate(zip(lengths, token_seqs)):
        if n < 1:
            raise DimensionError(f"utterance {i}: ctc_loss needs at least one frame")
        try:
            token_seqs[i] = seq = check_tokens(seq, grid.vocab_size)
        except ContractError as err:
            raise ContractError(f"utterance {i}: {err}") from None
        if n < min_frames(seq):
            raise InfeasibleAlignmentError(
                f"utterance {i}: {len(seq)} tokens need at least {min_frames(seq)} "
                f"frames, have {n}")
    # Blank-interleaved state sequences, one row each, padded with blank. A
    # token state may be entered from two states back unless that state
    # holds the same token.
    sizes = np.array([2 * len(seq) + 1 for seq in token_seqs], dtype=np.int64)
    states = np.full((sizes.size, sizes.max(initial=1)), BLANK_ID, dtype=np.int64)
    cols = np.arange(states.shape[1])
    states[(cols % 2 == 1) & (cols < sizes[:, None])] = [t for seq in token_seqs for t in seq]
    allow_skip = np.zeros(states.shape, dtype=bool)
    allow_skip[:, 2:] = (states[:, 2:] != BLANK_ID) & (states[:, 2:] != states[:, :-2])
    return ad.lattice_nll(grid.log_probs, states, allow_skip, sizes, lengths)


def greedy_decode(grid: PosteriorGrid) -> list[int]:
    """Best class per frame, collapse adjacent repeats, drop blanks."""
    path = np.argmax(grid.log_probs.data, axis=1)
    out: list[int] = []
    prev = -1
    for cls in path:
        if cls != prev and cls != BLANK_ID:
            out.append(int(cls))
        prev = cls
    return out


def blank_flags(grid: PosteriorGrid, beta: float) -> np.ndarray:
    """True where the blank posterior strictly exceeds ``beta``."""
    if not (0.0 < beta < 1.0):
        raise ParameterError(f"blank threshold must lie in (0, 1), got {beta}")
    return np.exp(grid.log_probs.data[:, BLANK_ID]) > beta


def prefix_beam_search(grid: PosteriorGrid, beam: int) -> list[tuple[tuple[int, ...], float]]:
    """Most probable collapsed label sequences with their total log probability.

    Per-prefix blank/non-blank masses are tracked separately; ties in total
    probability break toward the lexicographically smaller prefix so results
    are deterministic. Returns up to ``beam`` entries, best first.

    Each frame scores all (prefix, token) extensions of the beam as one
    (beam, V - 1) array. A prefix's non-blank mass takes at most two terms,
    its own stay and its parent's extension, and ``np.logaddexp`` is
    symmetric, so the masses do not depend on the order prefixes are visited.
    """
    if beam < 1:
        raise ParameterError(f"beam width must be positive, got {beam}")
    lp = np.asarray(grid.log_probs.data, dtype=np.float64)
    n_frames, vocab = lp.shape
    prefixes: list[tuple[int, ...]] = [()]
    last = np.zeros(1, dtype=np.int64)  # each prefix's last symbol, blank for ()
    p_blank = np.zeros(1)               # log mass ending in blank
    p_symbol = np.full(1, NEG_FILL)     # log mass ending in the last symbol
    total = np.zeros(1)
    for t in range(n_frames):
        row = lp[t]
        n = len(prefixes)
        # Every mass starts at NEG_FILL, and logaddexp(NEG_FILL, x) is
        # exactly max(NEG_FILL, x) for any x, so a first term is a maximum.
        # The empty prefix's symbol mass stays NEG_FILL: log probs are <= 0.
        stay_blank = np.maximum(total + row[BLANK_ID], NEG_FILL)
        stay_symbol = np.maximum(p_symbol + row[last], NEG_FILL)
        ext = total[:, None] + row[1:]
        grown = last.nonzero()[0]
        # extending a repeat requires the blank-ended mass
        ext[grown, last[grown] - 1] = p_blank[grown] + row[last[grown]]
        np.maximum(ext, NEG_FILL, out=ext)
        index = {prefix: i for i, prefix in enumerate(prefixes)}
        # An extension that spells a prefix already in the beam merges into
        # it and leaves the candidates as -inf.
        for j in grown.tolist():
            parent = index.get(prefixes[j][:-1])
            if parent is not None:
                c = last[j] - 1
                stay_symbol[j] = np.logaddexp(stay_symbol[j], ext[parent, c])
                ext[parent, c] = -np.inf
        # Candidates: the n stay slots, then the extensions row by row. Every
        # live score is at least NEG_FILL; all that tie the beam-th are kept.
        scores = np.concatenate([np.logaddexp(stay_blank, stay_symbol), ext.ravel()])
        cut = np.partition(scores, scores.size - beam)[scores.size - beam] \
            if scores.size > beam else NEG_FILL
        keep = (scores >= max(cut, NEG_FILL)).nonzero()[0].tolist()

        def candidate(k: int) -> tuple[int, ...]:
            if k < n:
                return prefixes[k]
            parent, c = divmod(k - n, vocab - 1)
            return prefixes[parent] + (c + 1,)

        ranked = sorted(zip((-scores[keep]).tolist(), map(candidate, keep), keep))[:beam]
        prefixes = [prefix for _, prefix, _ in ranked]
        rows = np.array([k for _, _, k in ranked])
        stay = rows < n
        total = scores[rows]
        last = np.array([prefix[-1] if prefix else BLANK_ID for prefix in prefixes])
        # An extension's blank mass is NEG_FILL and its non-blank mass its total.
        p_blank = np.full(rows.size, NEG_FILL)
        p_blank[stay] = stay_blank[rows[stay]]
        p_symbol = total.copy()
        p_symbol[stay] = stay_symbol[rows[stay]]
    return [(prefix, float(score)) for prefix, score in zip(prefixes, total)]
