import json
import math
import os
import struct

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
    meta = {"n_skills": 6, "physics": {"v_max": 1.2, "stumble_threshold": math.inf}}
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


# save_checkpoint(..., {"a": ...}, {"v": 1}): the 12-byte header, the
# metadata {"v": 1} at bytes 12-19, the segment count, the name length,
# then the name "a" at byte 26
@pytest.mark.parametrize("at, byte, part", [(13, 0xFF, "metadata"), (13, ord("x"), "metadata"),
                                            (26, 0xFF, "segment name")],
                         ids=["metadata_not_utf8", "metadata_not_json", "name_not_utf8"])
def test_undecodable_metadata_or_segment_name_names_the_file(tmp_path, at, byte, part):
    path = tmp_path / "ckpt.bin"
    save_checkpoint(str(path), {"a": np.arange(3.0)}, {"v": 1})
    blob = bytearray(path.read_bytes())
    blob[at] = byte
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match=f"{part}.*ckpt.bin"):
        load_checkpoint(str(path))


def test_rejects_overlapping_segments(tmp_path):
    # two segments at offset 0 would both load the first values and leave
    # the rest of the value block unread; save_checkpoint writes the
    # segments end to end, so each must start where the one before ends
    meta = json.dumps({}).encode()
    blob = b"HLCP" + struct.pack("<II", 1, len(meta)) + meta + struct.pack("<I", 2)
    for name in (b"a", b"b"):
        blob += struct.pack("<H", len(name)) + name + struct.pack("<QQ", 0, 2)
    path = tmp_path / "overlap.bin"
    path.write_bytes(blob + np.arange(4.0).astype("<f8").tobytes())
    with pytest.raises(CheckpointError, match="'b' does not start where the one before ends"):
        load_checkpoint(str(path))
