"""The report's bytes on a hand-written results directory, no training.

``PINNED`` holds the sha256 of every file ``run_report`` writes under
``figures/`` for the ``report_results`` fixture of ``conftest.py``, and
the report's exact stdout.  The KDE's ``np.exp`` bits can depend on the
numpy build and the CPU kernel, so the digests hold for the environment
recorded beside them, and the test skips under any other.
"""

import hashlib

import pytest
from test_golden_sweep import environment

from qcbnn import experiment
from qcbnn.experiment import run_report

PINNED_ENVIRONMENT = {
    "numpy": "2.4.6",
    "blas": "OpenBLAS 0.3.31.188.0 USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64",
}
PINNED = {  # in the order run_report returns the paths
    "train_curves.csv":
        "fd38fd56d28dfcfcd5258daf2950d9d2ed220be42203491fdbc947d984c91437",
    "train_curves.svg":
        "3aea1656083f9399f767a6e367d978a7484f62940b8458a0aa91d77a954ef61c",
    "validation_curves.csv":
        "4887dcdc9613db0867b8c53322777f20f38804d1826ff902d5a165633b64f7b3",
    "validation_curves.svg":
        "2f090814f76111d5934a88310698e9a49bfac041d3c1c89a1300ff1a9765cb16",
    "test_scores.csv":
        "f1df9ad5a6efbb7672116ea4f433b67d65fd346e3526f579271df084340d5118",
    "test_scores.svg":
        "65bcbb3c30fc123ab5f47c3ad80878330e722aebf79dc3f7d336a850e2a91f38",
    "confidence_error_density.csv":
        "d05d0a72426982cb4ec1f9c9479421397e5a47d994891b4d5b1e01d413a63a6f",
    "confidence_error_density.svg":
        "24c86ee659d97ce38a4a4789f89691ce5bd49c2896c9cf078867e81c9d926594",
    "ensemble_fraction_density.csv":
        "46bc4782daf4b3bb009cb681256407073e3569a19702e7c6c170b98c66f1e53c",
    "ensemble_fraction_density.svg":
        "fd6428f9eaa06af32a9d094c2ef8aed1b961b868bb0242fda8988060883f66fe",
    "calibration.csv":
        "567939030c41f960b0ee4ecaf658d111f68847c10d4cfc583954c4df006cc413",
    "calibration.svg":
        "739a481629d408eb1c4a394c11465be3a18b5b9f585645e692ed675a20e1d529",
    "weight_kde.csv":
        "57fcf34d8813c27840579fb56b46de3cb4b92ed54c4a1bd01240df028c195693",
    "weight_kde.svg":
        "b69af0706cb4b55ca67021fae96d988a7645a71b725dfa225ebad44fbe9cef6c",
    "difference_scatter.csv":
        "6ff395f71dba03de3960af945dbde8cc0000aba97f1f1f0f4cad5336c365971f",
    "difference_scatter.svg":
        "01fa3457eda917f15374447ee31cc881281d84618b920031b7c879012c231f62",
}
PINNED_STDOUT = ""


def figure_digests(results) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in (results / "figures").iterdir()}


def test_report_bytes_are_pinned(report_results, capsys):
    if environment() != PINNED_ENVIRONMENT:
        pytest.skip(f"digests were made under {PINNED_ENVIRONMENT}, not {environment()}")
    written = run_report(str(report_results))
    assert capsys.readouterr().out == PINNED_STDOUT
    assert written == [str(report_results / "figures" / name) for name in PINNED]
    assert figure_digests(report_results) == PINNED


def test_report_kde_runs_through_the_hooked_name(report_results, monkeypatch):
    """The benchmark counts ``metrics.kde`` by wrapping
    ``experiment.kde_density``; a report that reached the KDE through any
    other binding would leave that count at zero."""
    calls = []
    kde = experiment.kde_density

    def counting(*args, **kwargs):
        calls.append(1)
        return kde(*args, **kwargs)

    monkeypatch.setattr(experiment, "kde_density", counting)
    run_report(str(report_results))
    assert calls
