"""Output checks applied to every benchmark operation.

Each check raises ``CheckFailed`` with a reason; the runner counts the
operation as failed and goes on with the next one.
"""

from __future__ import annotations

import json
import math

import numpy as np

from skiprec import ctc, fileio, model

LOGSUMEXP_TOL = 1e-9


class CheckFailed(Exception):
    pass


def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


def check_grid(grid) -> None:
    """The grid is finite and each row is a log distribution."""
    lp = grid.log_probs.data
    _require(bool(np.all(np.isfinite(lp))), "final grid has non-finite values")
    top = lp.max(axis=1)
    lse = top + np.log(np.exp(lp - top[:, None]).sum(axis=1))
    worst = float(np.max(np.abs(lse))) if lse.size else 0.0
    _require(worst <= LOGSUMEXP_TOL, f"final grid row logsumexp off zero by {worst:.3g}")


def check_trace(trace) -> None:
    """Final grid, frame groups and output length of one forward pass."""
    check_grid(trace.final_grid)
    g = trace.groups
    frames = list(g.crucial) + list(g.trivial) + list(g.ignoring)
    _require(sorted(frames) == list(range(trace.subsampled_len)),
             "crucial, trivial and ignoring groups do not partition the frames")
    _require(trace.output_len == len(g.crucial) + len(g.trivial),
             f"output length {trace.output_len} != crucial {len(g.crucial)} "
             f"+ trivial {len(g.trivial)}")


def check_hypotheses(hyps, beam: int) -> None:
    """At most ``beam`` hypotheses, best first, ties toward the smaller prefix."""
    _require(1 <= len(hyps) <= beam, f"{len(hyps)} hypotheses for beam {beam}")
    keys = [(-score, tuple(prefix)) for prefix, score in hyps]
    _require(all(math.isfinite(score) for _, score in hyps), "non-finite hypothesis score")
    _require(keys == sorted(keys), "hypotheses are not sorted best first")


def check_decode(report, trace, hyps, beam: int | None) -> None:
    """One utterance decoded by ``evaluate_corpus``, against the captured outputs."""
    _require(trace is not None, "no forward trace was captured")
    check_trace(trace)
    rec = report.utterances[0]
    _require(rec["output_frames"] == trace.output_len, "report and trace disagree on length")
    if beam is None:
        _require(rec["hyp"] == ctc.greedy_decode(trace.final_grid),
                 "greedy hypothesis does not match the final grid")
    else:
        _require(hyps is not None, "no beam hypotheses were captured")
        check_hypotheses(hyps, beam)
        _require(tuple(rec["hyp"]) in {tuple(p) for p, _ in hyps},
                 "rescored hypothesis is not one of the beam hypotheses")


def _all_finite(value) -> bool:
    if isinstance(value, (int, float)):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    return True


def check_training(result, expected_steps: int, fresh_params) -> None:
    """``train_run`` logged finite metrics and its last checkpoint loads back."""
    _require(result.steps == expected_steps,
             f"train_run ended at step {result.steps}, expected {expected_steps}")
    _require(math.isfinite(result.final_error_rate) and math.isfinite(result.best_error_rate),
             "train_run returned a non-finite error rate")
    records = [json.loads(line) for line in
               result.metrics_path.read_text(encoding="utf-8").splitlines()]
    _require(bool(records), "train_run wrote no metric records")
    _require(all(_all_finite(r) for r in records), "train_run logged a non-finite metric")
    tensors = fileio.load_checkpoint(result.last_checkpoint)
    _require(all(np.all(np.isfinite(v)) for v in tensors.values()),
             "last checkpoint holds non-finite values")
    step = model.load_params_from_tensors(fresh_params, tensors, restore_moments=True)
    _require(step == expected_steps, f"last checkpoint restores step {step}")
