"""Which skiprec functions the traced run wraps, and the per-layer metrics.

Times are inclusive span time per utterance (per utterance-step on
desk-train), summed over every call under an operation's root span, unless
the name says otherwise: ``autodiff.adam_ms`` is per optimizer step and the
``fileio`` times are per call. A layer a workload never calls reads 0.
"""

from __future__ import annotations

import numpy as np

from tracer import Target


def _forward(arguments, trace, tracer) -> None:
    params = arguments["params"]
    tracer.record("forward", (
        trace.subsampled_len, len(trace.groups.crucial), len(trace.groups.trivial),
        bool(trace.fallback), bool(arguments.get("force_all_crucial", False)),
        len(params.e1), len(params.e2), trace.h1.frames.data.shape[1]))


def _backward(arguments, _result, tracer) -> None:
    tracer.record("tape_ops", len(arguments["self"]))


def _rescore(arguments, _result, tracer) -> None:
    tracer.record("hyps", len(arguments["hypotheses"]))


def _ad(attr: str) -> Target:
    return Target("skiprec.autodiff", attr, (f"autodiff.{attr}",))


TARGETS = [
    Target("skiprec.frontend", "subsample", ("frontend.subsample",)),
    *(_ad(a) for a in ("conv2d_s2", "swish", "glu_halves", "affine", "attention_core",
                       "layer_norm", "depthwise_conv1d", "adam_step")),
    Target("skiprec.autodiff", "Tape.backward", ("autodiff.backward",), _backward),
    Target("skiprec.encoder", "run_blocks", ("encoder.e1", "encoder.e2")),
    Target("skiprec.encoder", "self_attention_branch", ("encoder.self_attention",)),
    Target("skiprec.ctc", "prefix_beam_search", ("ctc.prefix_beam",)),
    Target("skiprec.ctc", "ctc_loss", ("ctc.loss",)),
    Target("skiprec.ctc", "posterior_grid", ("ctc.posterior_grid",)),
    Target("skiprec.ctc", "greedy_decode", ("ctc.greedy",)),
    *(Target("skiprec.splitter", a, (f"splitter.{a}",))
      for a in ("compute_sets", "assign_groups", "split_frames")),
    Target("skiprec.model", "forward_utterance", ("model.forward",), _forward),
    Target("skiprec.model", "recover", ("model.recover",)),
    Target("skiprec.model", "total_loss", ("model.total_loss",)),
    Target("skiprec.model", "component_losses", ("model.component_losses",)),
    Target("skiprec.decoder", "rescore", ("decoder.rescore",), _rescore),
    Target("skiprec.decoder", "aed_loss", ("decoder.aed_loss",)),
    Target("skiprec.evaluate", "evaluate_corpus", ("evaluate.corpus",)),
    Target("skiprec.fileio", "save_checkpoint", ("fileio.save_checkpoint",)),
    Target("skiprec.fileio", "load_checkpoint", ("fileio.load_checkpoint",)),
]

# metric -> span names whose inclusive time it sums, per utterance
PER_UTTERANCE = {
    "frontend.subsample_ms": ["frontend.subsample"],
    **{f"autodiff.{a}_ms": [f"autodiff.{a}"]
       for a in ("conv2d_s2", "swish", "glu_halves", "affine", "attention_core",
                 "layer_norm", "depthwise_conv1d", "backward")},
    "encoder.e1_ms": ["encoder.e1"],
    "encoder.e2_ms": ["encoder.e2"],
    "encoder.self_attention_ms": ["encoder.self_attention"],
    "ctc.prefix_beam_ms": ["ctc.prefix_beam"],
    "ctc.loss_ms": ["ctc.loss"],
    "ctc.posterior_grid_ms": ["ctc.posterior_grid"],
    "ctc.greedy_ms": ["ctc.greedy"],
    "splitter.split_ms": ["splitter.compute_sets", "splitter.assign_groups",
                          "splitter.split_frames"],
    "model.forward_ms": ["model.forward"],
    "model.recover_ms": ["model.recover"],
    "model.total_loss_ms": ["model.total_loss"],
    "model.component_losses_ms": ["model.component_losses"],
    "decoder.rescore_ms": ["decoder.rescore"],
    "decoder.aed_loss_ms": ["decoder.aed_loss"],
    "evaluate.corpus_ms": ["evaluate.corpus"],
}

# metric -> (span name, roots) whose inclusive time it averages per call
PER_CALL = {
    "fileio.save_checkpoint_ms": ("fileio.save_checkpoint", ("op",)),
    "fileio.load_checkpoint_ms": ("fileio.load_checkpoint", ("setup", "op")),
}

# metric -> span names whose existence it needs
NEEDS = {
    **{name: spans for name, spans in PER_UTTERANCE.items()},
    **{name: [span] for name, (span, _) in PER_CALL.items()},
    "autodiff.adam_ms": ["autodiff.adam_step"],
    "autodiff.tape_ops_per_utt": ["autodiff.backward"],
    "encoder.attn_macs": ["model.forward"],
    "splitter.crucial_frac": ["model.forward"],
    "splitter.kept_frac": ["model.forward"],
    "splitter.frames_per_utt": ["model.forward"],
    "model.forward_self_ms": ["model.forward"],
    "model.fallback_frac": ["model.forward"],
    "model.noskip_forward_ms": ["model.forward"],
    "model.skip_speedup": ["model.forward"],
    "model.analytic_attn_speedup": ["model.forward"],
    "decoder.hyps_per_utt": ["decoder.rescore"],
}


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, units: int, steps: int, noskip_units: int) -> dict[str, float]:
    """Per-layer metrics from the spans and records of a traced phase.

    ``units`` counts the utterances (utterance-steps) the traced operations
    processed, ``steps`` their optimizer steps and ``noskip_units`` the
    utterances of the no-skip baseline pass.
    """
    op = tracer.totals(("op",))
    noskip = tracer.totals(("noskip",))
    anywhere = tracer.totals(("op", "setup"))
    wrapped = {name for t in tracer.targets for name in t.names
               if f"{t.module}.{t.attr}" not in tracer.missing}

    def inclusive_ms(totals, span):
        return totals.get(span, {}).get("inclusive_s", 0.0) * 1000.0

    out: dict[str, float] = {}
    for name, spans in PER_UTTERANCE.items():
        out[name] = _ratio(sum(inclusive_ms(op, s) for s in spans), units)
    for name, (span, roots) in PER_CALL.items():
        totals = anywhere if "setup" in roots else op
        out[name] = _ratio(inclusive_ms(totals, span), totals.get(span, {}).get("calls", 0))
    out["autodiff.adam_ms"] = _ratio(inclusive_ms(op, "autodiff.adam_step"), steps)

    tape = [n for root, n in tracer.records.get("tape_ops", []) if root == "op"]
    out["autodiff.tape_ops_per_utt"] = _mean(tape)
    hyps = [n for root, n in tracer.records.get("hyps", []) if root == "op"]
    out["decoder.hyps_per_utt"] = _mean(hyps)

    fwd = np.array([v for root, v in tracer.records.get("forward", [])
                    if root == "op" and not v[4]], dtype=np.float64).reshape(-1, 8)
    t, crucial, trivial, fallback, _, m, n, d = fwd.T
    out["encoder.attn_macs"] = _mean((m * t * t + n * crucial * crucial) * d)
    out["splitter.crucial_frac"] = _ratio(crucial.sum(), t.sum())
    out["splitter.kept_frac"] = _ratio((crucial + trivial).sum(), t.sum())
    out["splitter.frames_per_utt"] = _mean(t)
    out["model.fallback_frac"] = _mean(fallback)
    # bench.py's attention-only cost model: (M T^2 + N c^2) / ((M + N) T^2)
    cost = (m * t * t + n * crucial * crucial) / ((m + n) * t * t) if len(t) else []
    out["model.analytic_attn_speedup"] = _ratio(1.0, _mean(cost))
    out["model.forward_self_ms"] = _ratio(
        op.get("model.forward", {}).get("self_s", 0.0) * 1000.0, units)
    out["model.noskip_forward_ms"] = _ratio(inclusive_ms(noskip, "model.forward"), noskip_units)
    skip_per_call = _ratio(inclusive_ms(op, "model.forward"),
                           op.get("model.forward", {}).get("calls", 0))
    out["model.skip_speedup"] = _ratio(out["model.noskip_forward_ms"], skip_per_call) \
        if noskip_units else 0.0
    return {k: v for k, v in out.items() if all(s in wrapped for s in NEEDS[k])}
