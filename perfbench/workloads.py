"""The three benchmark workloads, each a closed loop of one client.

A workload draws the input of its next operation (untimed), runs the
operation through skiprec's public functions (timed), then checks the output
(untimed). ``setup`` holds everything a user pays once before the first
operation; the runner calls it several times to report its median.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import inputs
from skiprec import config, evaluate, fileio, model, synth, train

FIXTURE = Path(__file__).resolve().parent / "fixture"


class Capture:
    """Keeps the last value returned by chosen skiprec functions.

    The per-operation checks read the forward trace and beam hypotheses that
    ``evaluate_corpus`` computes but does not return. The wrapper stores a
    reference and reads no clock.
    """

    def __init__(self, *targets: tuple[str, str]) -> None:
        self.last: dict[str, object] = {}
        for module_name, attr in targets:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            setattr(module, attr, self._wrap(fn, attr))

    def _wrap(self, fn, key: str):
        last = self.last

        @functools.wraps(fn)
        def capture(*args, **kwargs):
            out = fn(*args, **kwargs)
            last[key] = out
            return out

        return capture

    def take(self, key: str):
        return self.last.pop(key, None)


def load_fixture(directory: Path = FIXTURE) -> tuple[Path, dict[str, np.ndarray]]:
    """The desk checkpoint, after its SHA-256 matches the recorded one."""
    meta = json.loads((directory / "FIXTURE.json").read_text(encoding="utf-8"))
    path = directory / meta["file"]
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    if digest != meta["sha256"]:
        raise RuntimeError(f"fixture {path.name} has SHA-256 {digest}, expected {meta['sha256']}")
    return path, fileio.load_checkpoint(path)


def grid_digest(trace, hyp) -> str:
    h = hashlib.sha256(trace.final_grid.log_probs.data.tobytes())
    h.update(repr(list(hyp)).encode())
    return h.hexdigest()


@dataclass
class Op:
    """One operation's input; ``units`` is what per-utterance figures divide by."""

    ident: str
    units: int
    payload: object


class DecodeWorkload:
    """Shared loop of the two forward-only workloads: one utterance per operation."""

    name = ""
    beam: int | None = None   # None: greedy decoding; else prefix beam plus rescoring
    warmup = True

    def __init__(self, seed: int, capture: Capture) -> None:
        self.seed = seed
        self.capture = capture
        self.params = None
        self.stream = None
        self.edits = 0
        self.ref_tokens = 0

    def next_op(self) -> Op:
        utt = next(self.stream)
        return Op(utt.feats.utterance_id, 1, utt)

    def run(self, op: Op):
        utt = op.payload
        corpus = [(utt.feats, utt.tokens)]
        if self.beam is None:
            return evaluate.evaluate_corpus(self.params, self.model_cfg, self.loss_cfg, corpus,
                                            decode="greedy")
        return evaluate.evaluate_corpus(self.params, self.model_cfg, self.loss_cfg, corpus,
                                        decode="rescoring", beam=self.beam)

    def check(self, op: Op, report) -> str:
        trace = self.capture.take("forward_utterance")
        hyps = self.capture.take("prefix_beam_search")
        checks.check_decode(report, trace, hyps, self.beam)
        self.edits += report.substitutions_plus
        self.ref_tokens += report.reference_tokens
        self.observe(op, trace)
        return grid_digest(trace, report.utterances[0]["hyp"])

    def observe(self, op: Op, trace) -> None:
        pass

    def noskip(self, op: Op) -> int:
        """The same utterance with every frame crucial: the no-skip baseline.

        Returns the number of utterances it ran.
        """
        model.forward_utterance(op.payload.feats, self.params, self.model_cfg, self.loss_cfg,
                                force_all_crucial=True)
        self.capture.take("forward_utterance")
        return 1

    def cleanup(self, op: Op) -> None:
        pass

    def summary(self) -> dict[str, tuple[float, str]]:
        """Figures of the run outside the metrics, as (value, unit)."""
        return {"token_error_rate": (self.edits / max(self.ref_tokens, 1), "edits/token"),
                "reference_tokens": (self.ref_tokens, "count")}

    def gates(self) -> list[str]:
        return []


class DeskDecode(DecodeWorkload):
    """Held-out utterances of the fixture's language, prefix beam plus rescoring."""

    name = "desk-decode"
    beam = 8
    MAX_ERROR_RATE = 0.05

    def setup(self) -> None:
        cfg = config.RunConfig()
        self.model_cfg, self.loss_cfg = cfg.model, cfg.loss
        _, tensors = load_fixture()
        self.params = model.init_model(cfg.training.seed, cfg.model)
        model.load_params_from_tensors(self.params, tensors)
        self.stream = inputs.utterances(synth.SynthSpec(), self.seed, 1, "dec")

    def gates(self) -> list[str]:
        ter = self.summary()["token_error_rate"][0]
        if ter > self.MAX_ERROR_RATE:
            return [f"token error rate {ter:.4f} above {self.MAX_ERROR_RATE}"]
        return []


# Long utterances: 17 tokens with 50-56 frame gaps give 1002-1178 input frames
# (T = 250-294) and LONG_CRUCIAL_FRAC crucial frames once the probe flags silence.
LONG_SPEC = synth.SynthSpec(vocab_size=5000, feature_dim=80, tokens_min=17, tokens_max=17,
                            gap_min=50, gap_max=56)
PROBE_UTTERANCES = 6
PROBE_SEED = 0
MIN_FLAG_ACCURACY = 0.95
LONG_CRUCIAL_FRAC = 0.21   # the fraction the long-encode "why" in BENCHMARK.json records
CRUCIAL_FRAC_TOLERANCE = 0.05


class LongEncode(DecodeWorkload):
    """The m5n7 preset on long utterances with a calibrated blank probe, greedy decoding."""

    name = "long-encode"

    def setup(self) -> None:
        self.params = None   # release the previous repetition's model first
        self.model_cfg = config.full_scale_presets()["m5n7"]
        self.loss_cfg = config.LossConfig()
        self.params = model.init_model(0, self.model_cfg)
        probe = inputs.utterances(LONG_SPEC, PROBE_SEED, 0, "probe")
        self.probe_accuracy = inputs.fit_blank_probe(
            self.params, self.model_cfg.heads, self.loss_cfg.blank_threshold,
            [next(probe) for _ in range(PROBE_UTTERANCES)])
        self.stream = inputs.utterances(LONG_SPEC, self.seed, 2, "long")
        self.flag_hits = 0
        self.flag_frames = 0
        self.crucial = 0

    def observe(self, op: Op, trace) -> None:
        labels = inputs.silent_subsampled(op.payload.silent)
        self.flag_hits += int(np.sum(trace.flags == labels))
        self.flag_frames += labels.shape[0]
        self.crucial += trace.crucial_len

    def summary(self) -> dict:
        out = super().summary()
        out["probe_fit_accuracy"] = (self.probe_accuracy, "ratio")
        out["probe_heldout_accuracy"] = (self.flag_hits / max(self.flag_frames, 1), "ratio")
        out["crucial_frac"] = (self.crucial / max(self.flag_frames, 1), "ratio")
        return out

    def gates(self) -> list[str]:
        summary = self.summary()
        acc = summary["probe_heldout_accuracy"][0]
        frac = summary["crucial_frac"][0]
        failed = []
        if acc < MIN_FLAG_ACCURACY:
            failed.append(f"probe flags match held-out silence labels on {acc:.3f} of frames, "
                          f"below {MIN_FLAG_ACCURACY}")
        if abs(frac - LONG_CRUCIAL_FRAC) > CRUCIAL_FRAC_TOLERANCE:
            failed.append(f"crucial fraction {frac:.3f} is not within {CRUCIAL_FRAC_TOLERANCE} "
                          f"of {LONG_CRUCIAL_FRAC}")
        return failed


class DeskTrain:
    """``train_run`` with the default RunConfig, resumed from the fixture, per operation.

    Each checkpoint is written to a fresh file: the previous version is removed
    first. Each eval rewrites ``last.ckpt`` (13.8 MB), and on ext4 rewriting a
    file in place makes the truncating open wait until the previous version's
    writeback ends, 0.3 to 0.7 s per call on a shared virtual disk, varying
    with other disk traffic. A fresh file costs only the program's own
    serialising and writing, 3 to 7 ms per call, and that stays in the time.
    """

    name = "desk-train"
    warmup = False
    UTTERANCES_PER_OP = 8

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.errors: list[float] = []
        self.runs = 0
        save = fileio.save_checkpoint

        @functools.wraps(save)
        def fresh_save(path, *args, **kwargs):
            Path(path).unlink(missing_ok=True)
            return save(path, *args, **kwargs)

        fileio.save_checkpoint = fresh_save

    def setup(self) -> None:
        self.cfg = config.RunConfig()
        self.fixture, tensors = load_fixture()
        self.fixture_step = int(tensors["trainer.step"])
        self.stream = inputs.utterances(synth.SynthSpec(), self.seed, 3, "trn")
        self.count = 0
        t = self.cfg.training
        self.steps_per_op = t.epochs * math.ceil(self.UTTERANCES_PER_OP / t.batch_size)

    def next_op(self) -> Op:
        utts = [next(self.stream) for _ in range(self.UTTERANCES_PER_OP)]
        op_dir = self.work / f"op{self.count:04d}"
        self.count += 1
        shutil.rmtree(op_dir, ignore_errors=True)
        op_dir.mkdir(parents=True)
        fileio.write_features(op_dir / "features.bin",
                              [(u.feats.utterance_id, u.feats.frames) for u in utts])
        fileio.write_transcripts(op_dir / "transcripts.tsv",
                                 [(u.feats.utterance_id, u.tokens) for u in utts])
        units = self.cfg.training.epochs * self.UTTERANCES_PER_OP
        return Op(op_dir.name, units, op_dir)

    def run(self, op: Op):
        op_dir = op.payload
        self.runs += 1
        return train.train_run(self.cfg, op_dir / "features.bin", op_dir / "transcripts.tsv",
                               op_dir / f"run{self.runs}", resume_path=self.fixture)

    def check(self, op: Op, result) -> str:
        fresh = model.init_model(self.cfg.training.seed, self.cfg.model)
        checks.check_training(result, self.fixture_step + self.steps_per_op, fresh)
        self.errors.append(result.final_error_rate)
        h = hashlib.sha256(result.last_checkpoint.read_bytes())
        h.update(result.metrics_path.read_bytes())
        return h.hexdigest()

    def noskip(self, op: Op) -> int:
        return 0

    def cleanup(self, op: Op) -> None:
        shutil.rmtree(op.payload, ignore_errors=True)

    def summary(self) -> dict[str, tuple[float, str]]:
        ter = float(np.mean(self.errors)) if self.errors else math.nan
        return {"token_error_rate": (ter, "edits/token"),
                "optimizer_steps_per_op": (self.steps_per_op, "count")}

    def gates(self) -> list[str]:
        return []


def make(name: str, seed: int, work: Path):
    """The named workload; decode workloads install their capture here, once."""
    if name == "desk-train":
        return DeskTrain(seed, work)
    decode = {"desk-decode": DeskDecode, "long-encode": LongEncode}[name]
    return decode(seed, Capture(("skiprec.model", "forward_utterance"),
                                ("skiprec.ctc", "prefix_beam_search")))
