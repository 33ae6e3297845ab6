"""KL/reparam math against Monte Carlo oracles; checkpoint format round-trips."""
from __future__ import annotations

import subprocess

import numpy as np
import pytest

from hyar import numkit as nk


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
    path = str(tmp_path / "ck.hyar")
    nk.save_checkpoint(path, {"w": np.arange(6.0).reshape(2, 3),
                              "h": np.arange(3, dtype=np.float32)})
    raw = open(path, "rb").read()
    header = raw.split(b"\n")
    assert header[0] == b"HYAR-CKPT-2"
    assert header[1] == b"entries 2"
    assert header[2] == b"w 2x3 0 6 f8"
    assert header[3] == b"h 3 48 3 f4"
    assert header[4] == b"blob 60"


def test_checkpoint_float32_entries_stored_as_f4_byte_exact(tmp_path) -> None:
    rng = np.random.default_rng(78)
    entries = {"w32": rng.normal(size=(5, 3)).astype(np.float32),
               "v64": rng.normal(size=4),
               "t": np.float64(7.0),
               "b32": rng.normal(size=3).astype(np.float32)}
    path = str(tmp_path / "mixed.hyar")
    nk.save_checkpoint(path, entries)
    lines = open(path, "rb").read().split(b"\n")[2:6]
    assert [ln.split()[-1] for ln in lines] == [b"f4", b"f8", b"f8", b"f4"]
    back = nk.load_checkpoint(path)
    for name, v in entries.items():
        assert back[name].dtype == np.asarray(v).dtype
        assert back[name].tobytes() == np.asarray(v).tobytes()
    # offsets count 4 bytes per f4 value: 15 * 4 + 5 * 8 = 100
    assert lines[-1] == b"b32 3 100 3 f4"


def test_checkpoint_malformed_raises(tmp_path) -> None:
    path = str(tmp_path / "bad.hyar")
    with open(path, "wb") as fh:
        fh.write(b"NOT-A-CKPT\n")
    with pytest.raises(nk.CheckpointError):
        nk.load_checkpoint(path)
    # truncated blob
    nk.save_checkpoint(path, {"w": np.ones(10)})
    raw = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(raw[:-8])
    with pytest.raises(nk.CheckpointError):
        nk.load_checkpoint(path)
    with pytest.raises(nk.CheckpointError):
        nk.load_checkpoint(str(tmp_path / "missing.hyar"))
    # a shape whose int64 product wraps to the stored count of 0
    nk.save_checkpoint(path, {"w": np.zeros(0)})
    raw = open(path, "rb").read().replace(b"w 0 0 0 f8",
                                          b"w 4611686018427387904x4 0 0 f8")
    with open(path, "wb") as fh:
        fh.write(raw)
    with pytest.raises(nk.CheckpointError):
        nk.load_checkpoint(path)


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
