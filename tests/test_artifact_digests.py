"""Byte-identity pins: the sha256 of rounds.csv and events.jsonl for small runs,
the config_hash their manifests record, and the sha256 of the ciphertexts of a
fixed encryption sequence.

A change that keeps the simulator's arithmetic must keep every digest. A
change that moves an artifact on purpose updates the digests here and names
them in CHANGES.md.
"""

import hashlib
import json
import os

import numpy as np
import pytest

import fedmesh.secagg
from fedmesh.cli import cmd_run
from fedmesh.params import ParamVector
from fedmesh.secagg import FixedPointCodec, edge_keys, encrypt_update, keygen

CONFIGS = {
    # plaintext FedSelect-ME with one adversary of each kind
    "fedselect_me": {
        "n_edges": 4,
        "clients_per_edge": 5,
        "rounds_max": 4,
        "patience": 4,
        "data": {"n_samples": 3000},
        "secagg": {"enabled": False},
        "adversaries": [
            {"client_id": 1, "kind": "inflate_utility", "factor": 3.0},
            {"client_id": 7, "kind": "deflate_energy", "factor": 3.0},
            {"client_id": 13, "kind": "noise_weights", "factor": 0.5},
        ],
    },
    "no_selection": {
        "n_edges": 2,
        "clients_per_edge": 3,
        "rounds_max": 3,
        "patience": 3,
        "baseline_mode": "no_selection",
        "data": {"n_samples": 800},
        "secagg": {"enabled": False},
    },
    # Paillier with a small key, sample-weighted sums over one virtual edge
    "fedavg_single_secure": {
        "n_edges": 1,
        "clients_per_edge": 6,
        "rounds_max": 3,
        "patience": 3,
        "baseline_mode": "fedavg_single",
        "data": {"n_samples": 800},
        "selection": {"capacity_k": 4},
        "secagg": {"key_bits": 256},
    },
    # Paillier with one small key per edge
    "fedselect_me_secure": {
        "n_edges": 2,
        "clients_per_edge": 3,
        "rounds_max": 2,
        "patience": 2,
        "data": {"n_samples": 600},
        "secagg": {"key_bits": 256},
    },
    # a feature-shifted unknown edge, a failed edge in round 2 and per-client security indices
    "regions": {
        "n_edges": 3,
        "clients_per_edge": 3,
        "rounds_max": 3,
        "patience": 3,
        "data": {"n_samples": 900, "unknown_edge": 1, "unknown_shift": 1.5},
        "secagg": {"enabled": False},
        "edge_failures": [[2, 2]],
        "security_overrides": {"4": 0.9, "0": 0.1},
    },
    # the unknown region is a physical edge's clients, though fedavg_single trains them on one virtual edge
    "regions_fedavg_secure": {
        "n_edges": 3,
        "clients_per_edge": 3,
        "rounds_max": 2,
        "patience": 2,
        "baseline_mode": "fedavg_single",
        "data": {"n_samples": 900, "unknown_edge": 2},
        "selection": {"capacity_k": 5},
        "secagg": {"key_bits": 256},
    },
}

# (rounds.csv, events.jsonl) sha256 prefixes per (config, seed)
DIGESTS = {
    ("fedselect_me", 1): ("cf6fb89a3de91ff8", "bce5076f10b27200"),
    ("fedselect_me", 2): ("fe06f6388d772a8a", "27e546e35769c857"),
    ("fedselect_me", 23): ("22d7711daf9f85e6", "32cc492223b52ae3"),
    ("no_selection", 1): ("7276a0c70a63fca7", "3cde7af44682c3a3"),
    ("no_selection", 2): ("758139806a75f087", "3cde7af44682c3a3"),
    ("no_selection", 23): ("88dadf364516bbba", "3cde7af44682c3a3"),
    ("fedavg_single_secure", 1): ("8c7d56d88cd2703b", "ab8466ddd051d580"),
    ("fedavg_single_secure", 2): ("c6a8b4dba549bea5", "0323524d84005987"),
    ("fedavg_single_secure", 23): ("75aa34a50b3a7152", "c09b6391b28d9bce"),
    ("fedselect_me_secure", 1): ("cbbab430f22e3655", "de1c28ab925c6a25"),
    ("fedselect_me_secure", 2): ("28d92e9c152dbcef", "e0afdedb49343d1d"),
    ("fedselect_me_secure", 23): ("c39838ca1e30b268", "025d255eeb887edc"),
    ("regions", 1): ("d2efdc8f137ddf2c", "c329e146f52e94d7"),
    ("regions", 2): ("51e026b736e10e25", "797481e4d47cad90"),
    ("regions", 23): ("a3e5d30c6c5ed047", "515f1ec10e6fb312"),
    ("regions_fedavg_secure", 1): ("3cce18d28e42329c", "03ada4484a11356a"),
    ("regions_fedavg_secure", 2): ("0220fe91559dc982", "4cc6118d426ca766"),
    ("regions_fedavg_secure", 23): ("52607bb1914730d4", "8be5c4214804eba2"),
}

# config_hash prefixes per (config, seed); a schema change that moves them stops old manifests from replaying
CONFIG_HASHES = {
    ("fedselect_me", 1): "e55212c7cdbfeab5",
    ("fedselect_me", 2): "535ba7399647fffb",
    ("fedselect_me", 23): "907805fd942108f8",
    ("no_selection", 1): "e8cd310e2d37124f",
    ("no_selection", 2): "264de5c1ae03b18a",
    ("no_selection", 23): "d183d288d1ae42ff",
    ("fedavg_single_secure", 1): "65deb5300e16e6c3",
    ("fedavg_single_secure", 2): "39b9818e413e69bc",
    ("fedavg_single_secure", 23): "c8d99de1d53feb68",
    ("fedselect_me_secure", 1): "b91c72af44818557",
    ("fedselect_me_secure", 2): "1c92a55585884b17",
    ("fedselect_me_secure", 23): "aa24711c5a6f0f0a",
    ("regions", 1): "1af7650b4509213e",
    ("regions", 2): "9d46a55d1b6d8e54",
    ("regions", 23): "8762bc89cfeb6489",
    ("regions_fedavg_secure", 1): "dc8e17b09754c8bc",
    ("regions_fedavg_secure", 2): "ca3d76a5b64bb8a8",
    ("regions_fedavg_secure", 23): "1e012544cc562867",
}

# sha256 prefix of the 11 ciphertexts of encryption_sequence under keygen(256, seed)
CIPHERTEXT_DIGESTS = {1: "3ab30f558a908ec1", 2: "367d9b710b0865fe", 23: "c7e7225e30aa9329"}


@pytest.mark.parametrize("name,seed", sorted(DIGESTS))
def test_artifacts_are_byte_identical(name, seed, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("FEDMESH_SEED", raising=False)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**CONFIGS[name], "seed": seed}))
    assert cmd_run(str(path), str(tmp_path / "out")) == 0, capsys.readouterr().err
    got = tuple(
        hashlib.sha256((tmp_path / "out" / artifact).read_bytes()).hexdigest()[:16]
        for artifact in ("rounds.csv", "events.jsonl")
    )
    assert got == DIGESTS[name, seed]
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config_hash"][:16] == CONFIG_HASHES[name, seed]


def encryption_sequence(public):
    """Four raw encryptions, three packed updates of two ciphertexts each, one more
    raw encryption, yielded one ciphertext at a time."""
    codec = FixedPointCodec(scale=2**20, max_participants=64)
    for m in (0, 1, 2**100, public.n - 1):
        yield public.raw_encrypt(m)
    for i in range(3):
        yield from encrypt_update(ParamVector(np.linspace(-1.0, 1.0, 7) * (i + 1)), codec, public).ciphertexts
    yield public.raw_encrypt(12345)


def ciphertext_digest(cts):
    return hashlib.sha256(b"".join(c.to_bytes(64, "big") for c in cts)).hexdigest()[:16]


@pytest.mark.parametrize("seed", sorted(CIPHERTEXT_DIGESTS))
def test_ciphertexts_are_byte_identical(seed):
    public, _ = keygen(256, seed)
    cts = list(encryption_sequence(public))
    assert len(cts) == 11
    assert ciphertext_digest(cts) == CIPHERTEXT_DIGESTS[seed]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.parametrize("count", [11, 20], ids=["exact", "surplus"])
@pytest.mark.parametrize("seed", sorted(CIPHERTEXT_DIGESTS))
def test_worker_fed_ciphertexts_are_byte_identical(seed, count, monkeypatch):
    # the key's worker draws the exponents, in the same order whatever its budget
    monkeypatch.setattr(fedmesh.secagg, "_usable_cores", lambda: 2)
    with edge_keys(256, [seed], count) as keypairs:
        cts = list(encryption_sequence(keypairs[0]()[0]))
    assert len(cts) == 11
    assert ciphertext_digest(cts) == CIPHERTEXT_DIGESTS[seed]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.parametrize("seed", sorted(CIPHERTEXT_DIGESTS))
def test_worker_budget_ends_the_ciphertexts(seed, monkeypatch):
    # a worker makes its budget of 10 randomizers and exits, so the 11th encryption fails
    monkeypatch.setattr(fedmesh.secagg, "_usable_cores", lambda: 2)
    with edge_keys(256, [seed], 10) as keypairs:
        cts = encryption_sequence(keypairs[0]()[0])
        first = [next(cts) for _ in range(10)]
        with pytest.raises(ChildProcessError, match="exited early"):
            next(cts)
    assert first == list(encryption_sequence(keygen(256, seed)[0]))[:10]
