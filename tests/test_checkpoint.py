import os

import numpy as np
import pytest

from haarlab.checkpoint import CheckpointError, load_checkpoint, save_checkpoint


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    segments = {
        "pi_l/mean_net": rng.standard_normal(137),
        "pi_l/log_std": np.array([-0.5, 1e-300, np.pi]),
        "pi_h/logits_net": rng.standard_normal(64) * 1e12,
    }
    meta = {"n_skills": 6, "proxy": "velocity_direction"}
    path = tmp_path / "ckpt.bin"
    save_checkpoint(str(path), segments, meta)
    loaded, got_meta = load_checkpoint(str(path))
    assert got_meta == meta
    assert set(loaded) == set(segments)
    for name, arr in segments.items():
        assert np.array_equal(loaded[name], arr)
        assert loaded[name].tobytes() == np.asarray(arr, dtype="<f8").tobytes()


def test_save_load_save_identical_bytes(tmp_path):
    rng = np.random.default_rng(1)
    segments = {"b": rng.standard_normal(10), "a": rng.standard_normal(3)}
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(str(p1), segments, {"v": 1})
    loaded, meta = load_checkpoint(str(p1))
    save_checkpoint(str(p2), loaded, meta)
    assert p1.read_bytes() == p2.read_bytes()


def test_rejects_non_checkpoint(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))


def test_rejects_truncated(tmp_path):
    path = tmp_path / "ckpt.bin"
    save_checkpoint(str(path), {"a": np.arange(5.0)}, {})
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))


def test_little_endian_layout(tmp_path):
    path = tmp_path / "ckpt.bin"
    save_checkpoint(str(path), {"x": np.array([1.0])}, {})
    blob = path.read_bytes()
    assert blob[:4] == b"HLCP"
    assert blob[4:8] == (1).to_bytes(4, "little")
    # the single float64 value 1.0 sits at the end, little-endian
    assert blob[-8:] == np.array([1.0], dtype="<f8").tobytes()


def test_failed_save_leaves_the_previous_file(tmp_path):
    path = tmp_path / "ckpt.bin"
    save_checkpoint(str(path), {"a": np.arange(3.0)}, {"v": 1})
    with pytest.raises(UnicodeEncodeError):  # fails after the header is written
        save_checkpoint(str(path), {"\ud800": np.zeros(2)}, {"v": 2})
    loaded, meta = load_checkpoint(str(path))
    assert meta == {"v": 1} and np.array_equal(loaded["a"], np.arange(3.0))
    save_checkpoint(str(path), {"a": np.ones(2)})
    assert sorted(os.listdir(tmp_path)) == ["ckpt.bin"]
