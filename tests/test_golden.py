"""Golden batches: the exact bytes three CLI batches write.

Each batch's replicate CSVs and its aggregate.json (with the `metadata` key
removed, the only non-deterministic part) are hashed and compared with
hashes recorded once. Criterion 14 compares two runs of the same build; this
file pins the output across builds, so a change to the engine, the stop test
or the metrics that moves any byte fails here.

The three batches:

- the README example (circle, 50-ring, mu = 1/4, 8 replicates);
- a 12x12 torus checked every 10 events, with probes: its 288 edges exceed
  2 * max_degree * w_check_interval = 80, so its W test takes the tracked
  path, and five of its six runs stop on w_below between multiples of 100;
- an interval (deffuant) 20-path checked every 2 events, with probes: the
  tracked W test on the general loop.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from compassmodel import cli

BATCHES = {
    "readme": {
        "model": "compass", "graph": {"kind": "ring", "n": 50}, "mu": 0.25,
        "theta": None, "init": {"kind": "uniform"}, "seed": 2024, "replicates": 8,
        "stop": {"max_events": 1000000, "w_below": 1e-6},
        "probes": [1.0, 10.0, 100.0], "tol": 1e-6,
    },
    "torus12": {
        "model": "compass", "graph": {"kind": "torus", "dims": [12, 12]}, "mu": 0.5,
        "theta": None, "init": {"kind": "uniform"}, "seed": 5, "replicates": 6,
        "stop": {"max_events": 100000, "w_below": 1e-6, "w_check_interval": 10},
        "probes": [0.0, 5.0, 20.0, 60.0], "tol": 1e-6,
    },
    "deffuant20": {
        "model": "deffuant", "graph": {"kind": "path", "n": 20}, "mu": 0.5,
        "theta": None, "init": {"kind": "uniform"}, "seed": 5, "replicates": 4,
        "stop": {"max_events": 60000, "w_below": 1e-6, "w_check_interval": 2},
        "probes": [0.0, 10.0, 100.0], "tol": 1e-6,
    },
}

# recorded before the incremental W test and the vectorized metrics
GOLDEN = {
    "readme": {
        "replicate_0000.csv":
            "ae157c734a5aa57fc7cbdf55ba3f82a8ffaeb2a74c03366f619e675e04b23edd",
        "replicate_0001.csv":
            "b84108e5c14852454468bcc54a5020c924f54be3a17078635f27282d9ac9e3a9",
        "replicate_0002.csv":
            "c258b88bed3810c4435803d967f8d8a7e55af685fc0f899f0dc82d0789a75ae1",
        "replicate_0003.csv":
            "33b69b1c39132e8fbc530dd7e1a7f60fe1a5f1177dcc082b49a351aee6225c00",
        "replicate_0004.csv":
            "b193774c411e3488a8a9c44374b9a5a1ed9c685ccd7d51a9718c8082c0444955",
        "replicate_0005.csv":
            "aeb0f9b62ba06cfa0777a72adb6d2e6446e127d01abd2a01c7db4f82c5be8202",
        "replicate_0006.csv":
            "0a11ce86ed21a3beec43d0d7c6ab21446e9695b74680f4720be4e84fc3b92e02",
        "replicate_0007.csv":
            "16badf7ba5eb64de920b204fd077d9782be7fd7ae3ee5b3b7ac4bcf14e909275",
        "aggregate.json":
            "a3be5b44a3fe7dfcb9d2259453a30a15db0658aedc363b81f6f3a7c86bb01e8f",
    },
    "torus12": {
        "replicate_0000.csv":
            "201c35e2a28305fc38b0b5765a1bb756f4847d2ff6b9f7440a7d0a3db3fec6fd",
        "replicate_0001.csv":
            "c525bbffbf45c754fd24b4ef610b1fa92f639595e6bc0b0ee551b088aaf2b0cc",
        "replicate_0002.csv":
            "89334e6abe5bdb1d7d2d9f61461ee576aa264d45cc28813a454b9d77c0cb7bf2",
        "replicate_0003.csv":
            "3c5ca7479c50b5220ea56f8745195c49af3a3277675d61a12de32a02b19392f1",
        "replicate_0004.csv":
            "e32ba3fc57a3b38738788ab279f90516434ae43d2b8052eb59af812d2980e69d",
        "replicate_0005.csv":
            "0ff2c9c0b911fcd4bea9606a585c03fe9f472a28fad5e8bfe3cdb0c8bdee65b2",
        "aggregate.json":
            "01cffc416d215d59151e0d42db0039325ab0d8123863dc7bd230897f19c68030",
    },
    "deffuant20": {
        "replicate_0000.csv":
            "a1a1b06695e0822dc05870a2b5dc25cdd1a2acbdecaae0c27d398a2a21d33dc6",
        "replicate_0001.csv":
            "e4d95d8c9578fe882dc4dd34ba8fd875c66c5f31102b5faba87246c4e37a5dca",
        "replicate_0002.csv":
            "02a782895fd09265e51b24cd3bb4dbcb14588d56aaf2952b0470c33d8a73dd03",
        "replicate_0003.csv":
            "644c4d3bc5ab0b2f7a1aa06154a82d05e43b415d22e89bf347e19350bc614090",
        "aggregate.json":
            "46122d74713946c2eb03066db6bb1c3e84e70ea214562172f4b527610ff4db45",
    },
}


def batch_hashes(out) -> dict[str, str]:
    """sha256 of every replicate CSV and of aggregate.json without metadata."""
    hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
              for p in sorted(out.glob("replicate_*.csv"))}
    aggregate = json.loads((out / "aggregate.json").read_text(encoding="utf-8"))
    del aggregate["metadata"]
    text = json.dumps(aggregate, sort_keys=True)
    hashes["aggregate.json"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return hashes


@pytest.mark.parametrize("name", sorted(BATCHES))
def test_batch_bytes_are_pinned(name, tmp_path):
    cli.run_batch(cli.parse_config(BATCHES[name]), tmp_path)
    assert batch_hashes(tmp_path) == GOLDEN[name]
