"""The one write path: a write that fails partway, Ctrl-C included, leaves
its target as it was and no ``*.tmp`` beside it."""

import os

import numpy as np
import pytest

from qcbnn import experiment
from qcbnn.autodiff import save_checkpoint
from qcbnn.experiment import DUMP_BLOCK_DRAWS, _write_csv, dump_weight_samples
from qcbnn.files import write_file
from qcbnn.training import TrainConfig, build_model, draw_weight_samples


def fail_partway(target, error):
    """Raise ``error`` while the write to ``target`` is open."""
    assert os.path.exists(f"{target}.tmp")
    raise error


def rows_then_fail(rows, target, error):
    yield from rows
    fail_partway(target, error)


class _FailingDraw:
    """A weight draw whose chunks raise when the dump formats them."""

    def __init__(self, target, error):
        self.target, self.error = target, error

    @property
    def chunks(self):
        fail_partway(self.target, self.error)


class _FailingArrays(dict):
    """Checkpoint arrays that raise after the first one is written."""

    def __init__(self, target, error):
        super().__init__(w=np.arange(6.0).reshape(2, 3), b=np.ones(2))
        self.target, self.error = target, error

    def items(self):
        return rows_then_fail(list(super().items())[:1], self.target, self.error)


def write_csv_then_fail(path, error, monkeypatch):
    _write_csv(path, ["a", "b"], rows_then_fail([[1, 2.5], [3, None]], path, error))


def dump_then_fail(path, error, monkeypatch):
    """A dump whose second block of draws raises, after the first block."""
    draw = draw_weight_samples
    monkeypatch.setattr(experiment, "draw_weight_samples", lambda *args: (
        draw(*args)[:DUMP_BLOCK_DRAWS] + [_FailingDraw(path, error)]))
    model = build_model(TrainConfig(epochs=1, seed=0, sampler="classical"), (28, 28))
    dump_weight_samples(model, DUMP_BLOCK_DRAWS + 1, path)


def checkpoint_then_fail(path, error, monkeypatch):
    save_checkpoint(path, _FailingArrays(path, error))


WRITERS = [write_csv_then_fail, dump_then_fail, checkpoint_then_fail]
ERRORS = [ValueError("boom"), KeyboardInterrupt()]


@pytest.mark.parametrize("error", ERRORS, ids=lambda e: type(e).__name__)
@pytest.mark.parametrize("writer", WRITERS, ids=lambda w: w.__name__)
class TestFailedWrite:
    def test_existing_target_keeps_its_bytes(self, writer, error, tmp_path, monkeypatch):
        path = tmp_path / "artifact"
        path.write_bytes(b"old bytes\n")
        with pytest.raises(type(error)):
            writer(path, error, monkeypatch)
        assert path.read_bytes() == b"old bytes\n"
        assert os.listdir(tmp_path) == ["artifact"]

    def test_fresh_target_does_not_appear(self, writer, error, tmp_path, monkeypatch):
        with pytest.raises(type(error)):
            writer(tmp_path / "artifact", error, monkeypatch)
        assert os.listdir(tmp_path) == []


class TestWriteFile:
    def test_replaces_the_target_whole(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("old\n")
        with write_file(path) as fh:
            fh.write("x,y\n1,2\n")
            assert path.read_text() == "old\n"  # nothing visible before the block ends
        assert path.read_bytes() == b"x,y\n1,2\n"
        assert os.listdir(tmp_path) == ["a.csv"]

    def test_binary_mode(self, tmp_path):
        with write_file(tmp_path / "a.bin", "wb") as fh:
            fh.write(b"\x00\r\n\xff")
        assert (tmp_path / "a.bin").read_bytes() == b"\x00\r\n\xff"

    def test_file_mode_follows_the_umask(self, tmp_path):
        """Unlike a ``mkstemp`` file (0600), a written file gets what a
        plain ``open`` gives it."""
        umask = os.umask(0o022)
        try:
            with write_file(tmp_path / "a.csv") as fh:
                fh.write("x\n")
        finally:
            os.umask(umask)
        assert (tmp_path / "a.csv").stat().st_mode & 0o777 == 0o644

    def test_missing_directory_raises_and_writes_nothing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            with write_file(tmp_path / "no" / "a.csv") as fh:
                fh.write("x\n")
        assert os.listdir(tmp_path) == []
