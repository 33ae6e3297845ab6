"""KL/reparam math against Monte Carlo oracles; checkpoint format round-trips."""
from __future__ import annotations

import json
import os
import subprocess

import numpy as np
import pytest

from hyar import numkit as nk
from hyar.numkit import checkpoint as ckpt_module


def mc_kl_oracle(mu: np.ndarray, log_std: np.ndarray, n: int,
                 rng: np.random.Generator) -> float:
    """KL(q||N(0,I)) estimated as E_q[log q(z) - log p(z)], no closed form used."""
    std = np.exp(log_std)
    z = mu + std * rng.standard_normal(size=(n, mu.size))
    log_q = -0.5 * (((z - mu) / std) ** 2).sum(axis=1) - log_std.sum() \
        - 0.5 * mu.size * np.log(2 * np.pi)
    log_p = -0.5 * (z ** 2).sum(axis=1) - 0.5 * mu.size * np.log(2 * np.pi)
    return float((log_q - log_p).mean())


def test_kl_closed_form_vs_monte_carlo() -> None:
    rng = np.random.default_rng(42)
    mu = rng.normal(size=4) * 0.8
    log_std = rng.normal(size=4) * 0.4
    exact = float(nk.kl_std_normal(mu, log_std))
    approx = mc_kl_oracle(mu, log_std, 400_000, rng)
    assert abs(exact - approx) < 1e-2


def test_kl_frozen_value() -> None:
    # hand-computed: mu=[1,0], log_std=[0, ln 2]
    # 0.5 * [(1 + 1 - 1 - 0) + (4 + 0 - 1 - 2 ln 2)] = 0.5 * (4 - 2 ln 2)
    val = float(nk.kl_std_normal(np.array([1.0, 0.0]),
                                 np.array([0.0, np.log(2.0)])))
    assert abs(val - 0.5 * (4.0 - 2.0 * np.log(2.0))) < 1e-12


def test_kl_zero_at_standard_normal_and_batched() -> None:
    assert float(nk.kl_std_normal(np.zeros(6), np.zeros(6))) == 0.0
    rng = np.random.default_rng(0)
    mu = rng.normal(size=(5, 3))
    ls = rng.normal(size=(5, 3)) * 0.3
    batched = nk.kl_std_normal(mu, ls)
    assert batched.shape == (5,)
    for i in range(5):
        assert np.isclose(batched[i], float(nk.kl_std_normal(mu[i], ls[i])))
    assert np.all(batched >= 0.0)


def test_reparam_sample_moments() -> None:
    rng = np.random.default_rng(1)
    mu = np.array([0.5, -1.0])
    log_std = np.array([np.log(0.3), np.log(2.0)])
    noise = rng.standard_normal(size=(200_000, 2))
    z = nk.reparam_sample(mu, log_std, noise)
    assert np.allclose(z.mean(axis=0), mu, atol=2e-2)
    assert np.allclose(z.std(axis=0), [0.3, 2.0], rtol=2e-2)
    # deterministic given the noise
    assert np.array_equal(z, nk.reparam_sample(mu, log_std, noise))


def test_checkpoint_roundtrip_exact(tmp_path) -> None:
    rng = np.random.default_rng(77)
    entries = {
        "actor.W0": rng.normal(size=(8, 3)),
        "scalar.t": np.float64(123.0),
        "tiny": rng.normal(size=1),
        "rng.state": rng.integers(0, 2 ** 63, size=4, dtype=np.uint64).view(np.float64),
    }
    path = str(tmp_path / "ck.hyar")
    nk.save_checkpoint(path, entries)
    back = nk.load_checkpoint(path)
    assert set(back) == set(entries)
    for k, v in entries.items():
        got = back[k]
        assert got.shape == np.shape(v)
        # bit-exact round trip, including bit-viewed integer payloads
        assert np.array_equal(np.asarray(v, dtype=np.float64).view(np.uint64),
                              np.asarray(got).view(np.uint64))


def test_checkpoint_manifest_is_text(tmp_path) -> None:
    """The manifest is the magic line and one JSON layout line; the blob
    packs the entries in layout order with no offsets stored."""
    path = str(tmp_path / "ck.hyar")
    nk.save_checkpoint(path, {"w": np.arange(6.0).reshape(2, 3),
                              "h": np.arange(3, dtype=np.float32),
                              "t": np.frombuffer(b"hi", np.uint8)})
    raw = open(path, "rb").read()
    magic, layout, blob = raw.split(b"\n", 2)
    assert magic == b"HYAR-CKPT-3"
    assert layout == b'[["w","<f8",[2,3]],["h","<f4",[3]],["t","|u1",[2]]]'
    assert blob == (np.arange(6.0).tobytes()
                    + np.arange(3, dtype="<f4").tobytes() + b"hi")


def test_checkpoint_float32_entries_stored_as_f4_byte_exact(tmp_path) -> None:
    rng = np.random.default_rng(78)
    entries = {"w32": rng.normal(size=(5, 3)).astype(np.float32),
               "v64": rng.normal(size=4),
               "t": np.float64(7.0),
               "b32": rng.normal(size=3).astype(np.float32),
               "u8": np.arange(5, dtype=np.uint8),
               "i64": np.arange(2)}
    path = str(tmp_path / "mixed.hyar")
    nk.save_checkpoint(path, entries)
    _magic, layout, blob = open(path, "rb").read().split(b"\n", 2)
    assert [code for _name, code, _shape in json.loads(layout)] == [
        "<f4", "<f8", "<f8", "<f4", "|u1", "<f8"]
    back = nk.load_checkpoint(path)
    for name, v in entries.items():
        if name == "i64":  # anything but f4 and u1 is stored as f8
            assert back[name].dtype == np.float64
            assert np.array_equal(back[name], v)
            continue
        assert back[name].dtype == np.asarray(v).dtype
        assert back[name].tobytes() == np.asarray(v).tobytes()
    # packing counts 4 bytes per f4 value: 15 * 4 + 4 * 8 + 8 = 100
    assert blob[100:112] == entries["b32"].tobytes()
    assert len(blob) == 112 + 5 + 2 * 8


def _write(path: str, raw: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(raw)


def _with_layout(path: str, layout: bytes, blob: bytes) -> None:
    _write(path, b"HYAR-CKPT-3\n" + layout + b"\n" + blob)


@pytest.mark.parametrize("layout, blob", [
    (b'[["w","<f8",[2]]', bytes(16)),              # not JSON
    (b"[" * 100000, bytes(16)),                     # nested past the stack
    (b'{"w": ["<f8", [2]]}', bytes(16)),            # not a list
    (b'[["w","<f8"]]', bytes(16)),                  # row not a triple
    (b'[["w","<f8",[2],0]]', bytes(16)),            # row not a triple
    (b'[[7,"<f8",[2]]]', bytes(16)),                # name not a string
    (b'[["w",["<f8"],[2]]]', bytes(16)),            # dtype not a string
    (b'[["w","f8",[2]]]', bytes(16)),               # unknown dtype
    (b'[["w","<i8",[2]]]', bytes(16)),              # unknown dtype
    (b'[["w","<f8",2]]', bytes(16)),                # shape not a list
    (b'[["w","<f8",[2.0]]]', bytes(16)),            # dim not an int
    (b'[["w","<f8",[true,2]]]', bytes(16)),         # bool dim
    (b'[["w","<f8",[-2]]]', bytes(16)),             # negative dim
    (b'[["w","<f8",[-1,-2]]]', bytes(16)),          # 2 values, negative dims
    (b'[["w","<f8",[3]]]', bytes(16)),              # entry past the blob
    (b'[["w","<f8",[2]]]', bytes(17)),              # blob longer than layout
    # a shape whose int64 product wraps to 0
    (b'[["w","<f8",[4611686018427387904,4]]]', b""),
])
def test_checkpoint_bad_layout_raises(tmp_path, layout, blob) -> None:
    path = str(tmp_path / "bad.hyar")
    _with_layout(path, layout, blob)
    with pytest.raises(nk.CheckpointError):
        nk.load_checkpoint(path)


def test_checkpoint_malformed_raises(tmp_path) -> None:
    path = str(tmp_path / "bad.hyar")
    _write(path, b"NOT-A-CKPT\n")
    with pytest.raises(nk.CheckpointError):
        nk.load_checkpoint(path)
    # the older format is refused by its tag, and the error names it
    _write(path, b"HYAR-CKPT-2\nentries 1\nw 2 0 2 f8\nblob 16\n" + bytes(16))
    with pytest.raises(nk.CheckpointError, match="HYAR-CKPT-2"):
        nk.load_checkpoint(path)
    # no layout line
    _write(path, b"HYAR-CKPT-3\n[]")
    with pytest.raises(nk.CheckpointError):
        nk.load_checkpoint(path)
    # truncated blob
    nk.save_checkpoint(path, {"w": np.ones(10)})
    raw = open(path, "rb").read()
    _write(path, raw[:-8])
    with pytest.raises(nk.CheckpointError):
        nk.load_checkpoint(path)
    with pytest.raises(nk.CheckpointError):
        nk.load_checkpoint(str(tmp_path / "missing.hyar"))
    # an empty layout over an empty blob is a valid, empty checkpoint
    _with_layout(path, b"[]", b"")
    assert nk.load_checkpoint(path) == {}


def test_checkpoint_failed_save_keeps_previous_file(tmp_path, monkeypatch):
    """A save that raises part way leaves the file it would replace
    byte-identical and no temporary file behind."""
    path = str(tmp_path / "final.ckpt")
    nk.save_checkpoint(path, {"w": np.arange(1000.0)})
    before = open(path, "rb").read()

    class FailingFile:
        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.writes += 1
            if self.writes == 2:
                raise OSError("disk full")
            return self.fh.write(data)

    monkeypatch.setattr(ckpt_module, "open",
                        lambda *a, **k: FailingFile(open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError, match="disk full"):
        nk.save_checkpoint(path, {"w": np.zeros(2000), "v": np.ones(3)})
    monkeypatch.undo()
    assert open(path, "rb").read() == before
    assert os.listdir(tmp_path) == ["final.ckpt"]


def test_git_blob_sha1_matches_git(tmp_path) -> None:
    path = str(tmp_path / "blob.bin")
    with open(path, "wb") as fh:
        fh.write(b"hello checkpoint\x00\x01" * 37)
    ours = nk.git_blob_sha1(path)
    try:
        theirs = subprocess.run(["git", "hash-object", path], check=True,
                                capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("git unavailable")
    assert ours == theirs
