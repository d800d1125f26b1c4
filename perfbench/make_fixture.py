"""Rebuild the trained desk fixture that desk-train and desk-decode start from.

Recipe (the criterion-07 recipe): the default ``RunConfig`` (30 epochs) trained
from scratch on the 200-utterance seed-0 ``SynthSpec`` corpus. The fixture is
``last.ckpt`` because it carries the Adam moments that a resumed run needs.

The committed file, not a rebuild, is what the benchmark uses: a rebuild with
code whose arithmetic has changed gives other bytes, and the benchmark checks
the SHA-256 recorded in ``fixture/FIXTURE.json`` before it loads the file.

    python3 perfbench/make_fixture.py OUT_DIR
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from skiprec import config, synth, train  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out_dir")
    out = Path(ap.parse_args().out_dir)
    features, transcripts = synth.write_corpus(synth.SynthSpec(), out / "corpus")
    t0 = time.perf_counter()
    result = train.train_run(config.RunConfig(), features, transcripts, out / "run")
    seconds = time.perf_counter() - t0
    digest = hashlib.sha256(result.last_checkpoint.read_bytes()).hexdigest()
    print(json.dumps({"checkpoint": str(result.last_checkpoint), "sha256": digest,
                      "steps": result.steps, "final_error_rate": result.final_error_rate,
                      "train_seconds": round(seconds, 1)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
