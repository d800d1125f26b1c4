"""Wall-time benchmarking with an analytic attention-cost cross-check.

Attention dominates encoder cost at long lengths, so the expected cost of the
skipping path relative to running every frame through both stacks is

    (M * T**2 + N * c**2) / ((M + N) * T**2)

per utterance, where T is the subsampled length, c the crucial count, M and N
the block counts of the two stacks. The benchmark reports that ratio next to
measured medians so a reviewer can see how far reality sits from the model.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np

from . import fileio
from . import model as model_mod
from .config import LossConfig, ModelConfig, RunConfig
from .errors import ParameterError
from .evaluate import DEFAULT_BEAM, evaluate_corpus
from .train import load_corpus, train_run

TIMING_WINDOW = 0.05     # seconds every timed window spans at least
ALTERNATIONS = 3         # windows of each function per repeat
MAX_BATCH = 4096
MIN_REPEATS = 3          # fewest timing rounds bench_corpus accepts


@dataclass
class BenchRow:
    mode: int
    e1_blocks: int
    e2_blocks: int
    utterances: int
    mean_subsampled: float
    mean_crucial_frac: float
    mean_output_len: float
    mean_reduction: float
    encoder_ms_skip: float
    encoder_ms_noskip: float
    full_ms_skip: float
    analytic_cost_ratio: float
    analytic_speedup: float
    measured_speedup: float
    agreement: float


def _timed_interleaved(fns, repeats: int) -> list[float]:
    """Median wall time per call of each of ``fns`` over ``repeats`` rounds.

    Each round alternates the functions ``ALTERNATIONS`` times, one window
    each, in reverse order every other time, so drift in the machine's speed
    falls on all of them alike. Calls are batched geometrically until every
    function's window spans ``TIMING_WINDOW``; all windows then run that one
    batch count, and each function's median is over all of its windows.
    """
    def window(fn, batch):
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        return time.perf_counter() - t0

    batch = 1
    while min(window(fn, batch) for fn in fns) < TIMING_WINDOW and batch < MAX_BATCH:
        batch *= 2
    samples = [[] for _ in fns]
    order = list(zip(fns, samples))
    for _ in range(repeats * ALTERNATIONS):
        for fn, times in order:
            times.append(window(fn, batch) / batch)
        order.reverse()
    return [float(np.median(times)) for times in samples]


def bench_corpus(params, model_cfg: ModelConfig, loss_cfg: LossConfig, corpus,
                 repeats: int = 5, beam: int = DEFAULT_BEAM,
                 time_full_path: bool = True) -> BenchRow:
    """Measure the skipping and no-skip forward paths over one corpus.

    Encoder-only rows time ``forward_utterance`` alone; the full path times
    ``evaluate_corpus``'s rescoring decode, as ``skiprec eval`` runs it. The
    statistics come from the per-utterance records of one untimed greedy
    ``evaluate_corpus`` call: its crucial fraction and reduction means, and
    the lengths and analytic ratio from the records' frame counts.
    """
    if repeats < MIN_REPEATS:
        raise ParameterError(f"bench needs at least {MIN_REPEATS} repeats, got {repeats}")
    if not corpus:
        raise ParameterError("bench needs a non-empty corpus")

    m = model_cfg.e1_blocks
    n = model_cfg.e2_blocks
    stats = evaluate_corpus(params, model_cfg, loss_cfg, corpus)
    t, c, out_len = (np.array([rec[k] for rec in stats.utterances], dtype=np.float64)
                     for k in ("subsampled_frames", "crucial_frames", "output_frames"))

    def enc_skip():
        for feats, _ in corpus:
            model_mod.forward_utterance(feats, params, model_cfg, loss_cfg)

    def enc_noskip():
        for feats, _ in corpus:
            model_mod.forward_utterance(feats, params, model_cfg, loss_cfg,
                                        force_all_crucial=True)

    per_utt = 1000.0 / len(corpus)   # seconds-per-corpus -> ms-per-utterance
    t_skip, t_noskip = (t * per_utt for t in _timed_interleaved([enc_skip, enc_noskip], repeats))

    full_ms = float("nan")
    if time_full_path:
        def full_skip():
            evaluate_corpus(params, model_cfg, loss_cfg, corpus, decode="rescoring", beam=beam)
        full_ms = _timed_interleaved([full_skip], repeats)[0] * per_utt

    analytic_ratio = float(np.mean((m * t * t + n * c * c) / ((m + n) * t * t)))
    analytic_speedup = 1.0 / analytic_ratio
    measured_speedup = t_noskip / t_skip
    return BenchRow(
        mode=loss_cfg.split_mode,
        e1_blocks=m,
        e2_blocks=n,
        utterances=len(corpus),
        mean_subsampled=float(np.mean(t)),
        mean_crucial_frac=stats.crucial_frac_mean,
        mean_output_len=float(np.mean(out_len)),
        mean_reduction=stats.reduction_mean,
        encoder_ms_skip=t_skip,
        encoder_ms_noskip=t_noskip,
        full_ms_skip=full_ms,
        analytic_cost_ratio=analytic_ratio,
        analytic_speedup=analytic_speedup,
        measured_speedup=measured_speedup,
        agreement=measured_speedup / analytic_speedup,
    )


_COLUMNS = [f.name for f in fields(BenchRow)]


def rows_to_tsv(rows: list[BenchRow]) -> str:
    lines = ["\t".join(_COLUMNS)]
    for r in rows:
        lines.append("\t".join(_format(getattr(r, c)) for c in _COLUMNS))
    return "\n".join(lines) + "\n"


def rows_to_text(rows: list[BenchRow]) -> str:
    """Aligned fixed-width table for terminal reading."""
    cells = [[_format(getattr(r, c)) for c in _COLUMNS] for r in rows]
    widths = [max(len(_COLUMNS[i]), *(len(row[i]) for row in cells)) if cells
              else len(_COLUMNS[i]) for i in range(len(_COLUMNS))]
    out = ["  ".join(_COLUMNS[i].ljust(widths[i]) for i in range(len(_COLUMNS)))]
    for row in cells:
        out.append("  ".join(row[i].rjust(widths[i]) for i in range(len(_COLUMNS))))
    return "\n".join(out) + "\n"


def _format(v) -> str:
    if isinstance(v, float):
        return f"{v:.4f}"
    return str(v)


def sweep(base_cfg: RunConfig, features_path, transcripts_path,
          block_pairs: list[tuple[int, int]], modes: list[int],
          repeats: int = 3, out_dir=None, quiet: bool = True) -> list[BenchRow]:
    """Train one model per (E1, E2) depth pair, then bench every split mode on it.

    The mode only affects routing, not weights, so each trained checkpoint is
    reused across modes; rows come back grouped by depth pair then mode. Each
    pair trains in ``out_dir/m{M}n{N}``, or under a temporary directory that is
    removed on return when ``out_dir`` is None.
    """
    corpus = load_corpus(features_path, transcripts_path, base_cfg.model)
    rows: list[BenchRow] = []
    with nullcontext(out_dir) if out_dir is not None else TemporaryDirectory() as root:
        for m, n in block_pairs:
            cfg = replace(base_cfg, model=replace(base_cfg.model, e1_blocks=m, e2_blocks=n))
            result = train_run(cfg, features_path, transcripts_path, Path(root) / f"m{m}n{n}",
                               quiet=quiet)
            params = model_mod.init_model(cfg.training.seed, cfg.model)
            model_mod.load_params_from_tensors(
                params, fileio.load_checkpoint(result.last_checkpoint))
            for mode in modes:
                loss_cfg = replace(cfg.loss, split_mode=mode)
                rows.append(bench_corpus(params, cfg.model, loss_cfg, corpus,
                                         repeats=repeats, time_full_path=False))
                if not quiet:
                    r = rows[-1]
                    print(f"M={m} N={n} mode={mode}: out_len={r.mean_output_len:.1f} "
                          f"crucial={r.mean_crucial_frac:.3f} speedup={r.measured_speedup:.2f}")
    return rows
