"""Self-tests of the benchmark: checks, probe, tracer and the result contract.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run.import_program()

import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from skiprec import fileio, model, synth  # noqa: E402
from tracer import Target, Tracer  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def desk():
    wl = workloads.make("desk-decode", 5, run.OUT / "work" / "selftest")
    wl.setup()
    return wl


def test_same_seed_same_inputs_and_language():
    spec = synth.SynthSpec()
    a = next(inputs.utterances(spec, 3, 1, "u"))
    b = next(inputs.utterances(spec, 3, 1, "u"))
    c = next(inputs.utterances(spec, 4, 1, "u"))
    assert np.array_equal(a.feats.frames, b.feats.frames) and a.tokens == b.tokens
    assert not np.array_equal(a.feats.frames[:10], c.feats.frames[:10])
    _, silence = synth.prototypes(spec)
    gap = a.feats.frames[a.silent]
    assert np.abs(gap - silence).max() < 10 * spec.noise
    assert inputs.silent_subsampled(a.silent).shape[0] == \
        inputs.frontend.subsampled_length(a.feats.length)


def test_fixture_digest_is_verified(tmp_path):
    path, tensors = workloads.load_fixture()
    assert int(tensors["trainer.step"]) == 750 and any(k.endswith(".m1") for k in tensors)
    shutil.copy(workloads.FIXTURE / "FIXTURE.json", tmp_path / "FIXTURE.json")
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 1
    (tmp_path / path.name).write_bytes(bytes(raw))
    with pytest.raises(RuntimeError, match="SHA-256"):
        workloads.load_fixture(tmp_path)


def test_checks_pass_good_outputs_and_reject_corrupt_ones(desk):
    op = desk.next_op()
    report = desk.run(op)
    trace = desk.capture.last["forward_utterance"]
    hyps = desk.capture.last["prefix_beam_search"]
    desk.check(op, report)
    checks.check_hypotheses(hyps, 8)
    with pytest.raises(checks.CheckFailed, match="hypotheses for beam"):
        checks.check_hypotheses(hyps, len(hyps) - 1)
    with pytest.raises(checks.CheckFailed, match="not sorted"):
        checks.check_hypotheses(hyps[::-1], 8)
    trace.groups = type(trace.groups)(sets=trace.groups.sets, crucial=trace.groups.crucial[1:],
                                      trivial=trace.groups.trivial, ignoring=trace.groups.ignoring)
    with pytest.raises(checks.CheckFailed, match="partition"):
        checks.check_trace(trace)


def test_corrupt_output_is_counted_as_failed_not_raised(desk):
    real_run = desk.run

    def corrupting_run(op):
        report = real_run(op)
        desk.capture.last["forward_utterance"].final_grid.log_probs.data[0, 0] = np.nan
        return report

    desk.run = corrupting_run
    try:
        record = run.run_op(desk, desk.next_op())
    finally:
        desk.run = real_run
    assert record.error is not None and "non-finite" in record.error
    assert run.run_op(desk, desk.next_op()).error is None


def test_traced_outputs_equal_untraced_and_uninstall_restores(desk):
    ops = [desk.next_op() for _ in range(3)]
    plain = [run.run_op(desk, op) for op in ops]
    original = model.forward_utterance
    tracer = Tracer(layers.TARGETS)
    tracer.install()
    try:
        traced = [run.run_op(desk, op, tracer) for op in ops]
    finally:
        tracer.uninstall()
    assert model.forward_utterance is original
    assert [r.digest for r in plain] == [r.digest for r in traced]
    assert all(r.error is None for r in plain + traced)
    metrics = layers.per_layer(tracer, units=3, steps=0, noskip_units=0)
    totals = tracer.totals(("op",))
    assert totals["encoder.e1"]["calls"] == totals["encoder.e2"]["calls"] == 3
    # the forward's children cover it up to its own glue code
    fwd = totals["model.forward"]
    assert 0.0 <= fwd["self_s"] < 0.2 * fwd["inclusive_s"]
    assert metrics["decoder.hyps_per_utt"] <= 8


def test_missing_function_drops_its_metrics_only(desk):
    targets = [Target("skiprec.model", "no_such_fn", t.names) if t.attr == "forward_utterance"
               else t for t in layers.TARGETS]
    tracer = Tracer(targets)
    tracer.install()
    try:
        with tracer.span("op", "x"):
            desk.run(desk.next_op())
    finally:
        tracer.uninstall()
    assert tracer.missing == ["skiprec.model.no_such_fn"]
    metrics = layers.per_layer(tracer, units=1, steps=0, noskip_units=0)
    assert "model.forward_ms" not in metrics and "splitter.crucial_frac" not in metrics
    assert metrics["ctc.prefix_beam_ms"] > 0


def test_self_time_subtracts_direct_children():
    tracer = Tracer([])
    tracer.names = ["op", "a", "b"]
    tracer.name_ids = {"op": 0, "a": 1, "b": 2}
    tracer.span_name = [0, 1, 2, 2]
    tracer.start = [0.0, 1.0, 2.0, 5.0]
    tracer.end = [10.0, 8.0, 4.0, 6.0]
    tracer.parent = [-1, 0, 1, 1]
    totals = tracer.totals(("op",))
    assert totals["op"]["self_s"] == pytest.approx(3.0)
    assert totals["a"]["self_s"] == pytest.approx(4.0)
    assert totals["b"] == {"calls": 2, "inclusive_s": pytest.approx(3.0),
                           "self_s": pytest.approx(3.0)}


def test_long_encode_probe_flags_match_heldout_labels():
    wl = workloads.make("long-encode", 9, run.OUT / "work" / "selftest")
    wl.setup()
    records = [run.run_op(wl, wl.next_op()) for _ in range(3)]
    assert all(r.error is None for r in records)
    summary = {name: value for name, (value, _) in wl.summary().items()}
    assert summary["probe_heldout_accuracy"] >= workloads.MIN_FLAG_ACCURACY
    assert abs(summary["crucial_frac"] - workloads.LONG_CRUCIAL_FRAC) \
        <= workloads.CRUCIAL_FRAC_TOLERANCE
    assert f"crucial_frac {workloads.LONG_CRUCIAL_FRAC}" in \
        next(w["why"] for w in SPEC["workloads"] if w["name"] == "long-encode")
    assert not wl.gates()
    wl.crucial = wl.flag_frames   # every frame crucial: skipping is off
    assert any("crucial fraction" in g for g in wl.gates())


def test_desk_train_writes_each_checkpoint_to_a_fresh_file(monkeypatch, tmp_path):
    monkeypatch.setattr(fileio, "save_checkpoint", fileio.save_checkpoint)
    workloads.make("desk-train", 1, tmp_path)
    path = tmp_path / "last.ckpt"
    fileio.save_checkpoint(path, {"w": np.zeros(3)})
    (tmp_path / "first.ckpt").hardlink_to(path)   # rewritten in place, it would change too
    fileio.save_checkpoint(path, {"w": np.ones(3)})
    assert np.array_equal(fileio.load_checkpoint(path)["w"], np.ones(3))
    assert np.array_equal(fileio.load_checkpoint(tmp_path / "first.ckpt")["w"], np.zeros(3))


def test_benchmark_json_matches_what_the_runs_report():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    assert e2e == set(run.end_to_end([], 1.0))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    derived = set(layers.PER_UTTERANCE) | set(layers.PER_CALL) | set(layers.NEEDS)
    assert {m["name"] for m in SPEC["per_layer"]} == derived | {"trace.overhead_ms"}


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_has_exactly_the_contract_keys(trace, capsys):
    assert run.main(["--workload", "desk-decode", "--seed", "2", "--seconds", "0.3",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk-decode",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
