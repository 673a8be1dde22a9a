"""The byte contract across commits: a small fixed sweep against a manifest.

The sweep is circuit_iii at L1 and L2re, then the classical and the
plain-VI sampler, each at seed 0 for 2 epochs on the default synthetic
split.  ``golden/manifest.json`` holds the sha256 of that split's images,
labels and tags, checked first so that a change of the data is reported
as such and not as drift in every CSV, and the sha256 of every hashed CSV
the sweep writes (``summary.csv``, ``epochs.csv``, ``eval_test.csv`` and
``weight_samples.csv``).  The small ones are committed under ``golden/``
too, so a mismatch names each file with its largest absolute and relative
drift; ``weight_samples.csv`` is checked by digest only.

The digests hold for one numpy and one OpenBLAS build and kernel, which
the manifest records; under any other the test skips.  The manifest is
check data: a change that moves numerics on purpose regenerates it in the
same commit, and reports the drift this test printed, with

    PYTHONPATH=src python tests/test_golden_sweep.py
"""

import csv
import ctypes
import glob
import hashlib
import json
import math
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest

from qcbnn.config import RunConfig, apply_settings
from qcbnn.experiment import resolve_dataset, run_train

GOLDEN = Path(__file__).parent / "golden"
SWEEP = {
    "quantum": {"sampler": "quantum", "arch": "circuit_iii", "layers": "1,2",
                "reupload": "false,true"},
    "classical": {"sampler": "classical"},
    "vi": {"sampler": "vi"},
}
HASHED = ("summary.csv", "epochs.csv", "eval_test.csv", "weight_samples.csv")
COMMITTED = HASHED[:3]


def blas_config() -> str:
    """The config line of the OpenBLAS numpy loaded, kernel included, or
    numpy's build record of its BLAS when that library cannot be asked."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                     "openblas_get_config"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return " ".join(fn().decode().split())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas['name']} {blas['version']}"


def environment() -> dict:
    return {"numpy": np.__version__, "blas": blas_config()}


def run_sweep(out: Path) -> dict[str, Path]:
    """Run the sweep under ``out``; its hashed CSVs by relative path."""
    for name, settings in SWEEP.items():
        run_train(apply_settings(RunConfig(), dict(settings, seed="0", epochs="2",
                                                   out=str(out / name))))
    return {p.relative_to(out).as_posix(): p
            for p in sorted(out.rglob("*.csv")) if p.name in HASHED}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def dataset_digests() -> dict[str, str]:
    """sha256 of the default split's images, labels and tags."""
    tagged = resolve_dataset(RunConfig())
    blobs = {"images": tagged.images.tobytes(), "labels": tagged.labels.tobytes(),
             "tags": "\n".join(tagged.tags).encode()}
    return {name: hashlib.sha256(blob).hexdigest() for name, blob in blobs.items()}


def drift(want: Path, got: Path) -> str:
    """The largest absolute and relative change over the numeric cells of
    two CSVs, or the first change that is not numeric."""
    rows = [list(csv.reader(p.open(newline=""))) for p in (want, got)]
    if [len(r) for r in rows[0]] != [len(r) for r in rows[1]]:
        return "rows or columns differ"
    worst_abs = worst_rel = 0.0
    for a_row, b_row in zip(*rows):
        for a, b in zip(a_row, b_row):
            if a == b:
                continue
            try:
                x, y = float(a), float(b)
            except ValueError:
                x = y = math.nan
            if not (math.isfinite(x) and math.isfinite(y)):
                return f"cell {a!r} became {b!r}"
            worst_abs = max(worst_abs, abs(x - y))
            worst_rel = max(worst_rel, abs(x - y) / max(abs(x), abs(y)))
    return f"max abs drift {worst_abs:.3g}, max rel drift {worst_rel:.3g}"


def test_sweep_matches_the_golden_manifest(tmp_path):
    manifest = json.loads((GOLDEN / "manifest.json").read_text())
    here = environment()
    if manifest["environment"] != here:
        pytest.skip(f"digests were made under {manifest['environment']}, not {here}")
    digests = manifest["sha256"]
    for rel, digest in digests.items():
        if Path(rel).name in COMMITTED:
            assert sha256(GOLDEN / rel) == digest, f"committed {rel} does not match the manifest"
    got = dataset_digests()
    moved = [name for name, digest in manifest["dataset"].items() if got[name] != digest]
    assert not moved, f"the default split's {', '.join(moved)} moved, so every CSV would"
    files = run_sweep(tmp_path)
    assert sorted(files) == sorted(digests)
    drifted = [f"{rel}: " + (drift(GOLDEN / rel, path) if path.name in COMMITTED
                             else "digest differs")
               for rel, path in files.items() if sha256(path) != digests[rel]]
    assert not drifted, "hashed CSVs moved:\n" + "\n".join(drifted)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        files = run_sweep(Path(tmp))
        for name in SWEEP:
            shutil.rmtree(GOLDEN / name, ignore_errors=True)
        for rel, path in files.items():
            if path.name in COMMITTED:
                (GOLDEN / rel).parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(path, GOLDEN / rel)
        manifest = {"environment": environment(), "dataset": dataset_digests(),
                    "sha256": {rel: sha256(path) for rel, path in files.items()}}
    (GOLDEN / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"wrote {GOLDEN / 'manifest.json'} over {len(files)} files")
