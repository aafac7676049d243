"""Golden outputs: the exact bytes that CLI batches and scenarios write.

Each batch's replicate CSVs and its aggregate.json (with the `metadata` key
removed, the only non-deterministic part) are hashed and compared with
hashes recorded once. The aggregate is hashed twice: with sorted keys, and
in file order, which pins the order of the config echo too. Criterion 14
compares two runs of the same build; this file pins the output across
builds, so a change to the engine, the stop test, the metrics or the config
handling that moves any byte fails here.

The batches:

- the README example (circle, 50-ring, mu = 1/4, 8 replicates);
- a 12x12 torus checked every 10 events, with probes: its 288 edges exceed
  2 * max_degree * w_check_interval = 80, so its W test takes the tracked
  path, and five of its six runs stop on w_below between multiples of 100;
- an interval (deffuant) 20-path checked every 2 events, with probes: the
  tracked W test under the interval rule;
- a 12-ring whose config gives only the graph and the stop rule, so every
  other key takes its default;
- a 5-path from explicit opinions, with integers where the config echo
  writes floats (theta, init values, probes) and a max_time stop.

The scenarios' `-o` JSON reports are pinned the same way, and so are the
circle limits of a small circle-versus-interval comparison, which the report
leaves out.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from compassmodel import cli, scenarios

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
    "defaults": {
        "graph": {"kind": "ring", "n": 12}, "stop": {"max_events": 20000, "w_below": 1e-6},
    },
    "explicit": {
        "graph": {"kind": "path", "n": 5}, "mu": 0.25, "theta": 1,
        "init": {"kind": "explicit", "values": [0, 0.5, -0.75, 1, 0.25]},
        "stop": {"w_below": 1e-9, "max_time": 50}, "probes": [1, 2.5], "tol": 1e-3,
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
    # recorded before the config became a plain normalized dict
    "defaults": {
        "replicate_0000.csv":
            "3ad4d5b0e2a4d55f385fcd9d1636f282aab7dfe283f2571a270ade4ca207f421",
        "aggregate.json":
            "2ae49b2b9b770addd7e62afd28db938ef2d50829865721fbcbc4152ce2839bd5",
    },
    "explicit": {
        "replicate_0000.csv":
            "449fc7212573c347cb66007b52cf32dc592eefce9d98a5174f9066bcc5228613",
        "aggregate.json":
            "f35723ce1a9d0161c1f553d5fe871070aa2613542a00096488bd238e41eadfe8",
    },
}

# aggregate.json without metadata, dumped in file order with indent=2;
# recorded before the config became a plain normalized dict
GOLDEN_FILE_ORDER = {
    "readme": "bf1dc7775897ec352c7f501b08099d7eafc1e77a51c8cf801e5220175948e94c",
    "torus12": "04c900dd731d67b4600eee74a3bed2079e98e61d86d16de32e9b3f6b6aef3f6c",
    "deffuant20": "f2c2e44cca549b048bc0e5a86b8a634d1f8d540ae93908918412f0cfcd1e6f18",
    "defaults": "06adb0f8dd092c24981e970a95521b6028771955e223da3fbfcdbf7c38057d4d",
    "explicit": "d74f5483c7f0d6bd4a49a6ae044a97de41ada6600e6fcf3ebb88f47d4a9d0846",
}

# `compassmodel scenario NAME ARGS -o DIR` writes DIR/NAME.json
SCENARIO_REPORTS = {
    "butterfly": (["--set", "n=6"],
                  "795b5702c8539448a25b87d23b39de0101b6a0b82e05eb0da37fdef6a1b571a0"),
    "signflip": (["--set", "c=0.5"],
                 "0638941242ca6bd792ae1df903a5176cf26f3800e05039745c705258c072554b"),
    "deffuant_vs_compass": (
        ["--set", "n=5", "--set", "replicates=20"],
        "0f890875ca5e46a1fd1d821fe08bbeb826f041a58360fa8b80bdd32973aa46c7"),
}

# repr of run_comparison(5, seed=0, replicates=20).compass_limits
GOLDEN_COMPARISON_LIMITS = "3bbab102d34a7f76a706470cbdfced3ad94638eee32278f2e2149c7c47194b7c"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def batch_hashes(out) -> dict[str, str]:
    """sha256 of every replicate CSV and of aggregate.json without metadata."""
    hashes = {p.name: sha256(p.read_bytes()) for p in sorted(out.glob("replicate_*.csv"))}
    aggregate = json.loads((out / "aggregate.json").read_text(encoding="utf-8"))
    del aggregate["metadata"]
    hashes["aggregate.json"] = sha256(json.dumps(aggregate, sort_keys=True).encode("utf-8"))
    return hashes


def file_order_hash(out) -> str:
    """sha256 of aggregate.json without metadata, keys in the order written."""
    aggregate = json.loads((out / "aggregate.json").read_text(encoding="utf-8"))
    del aggregate["metadata"]
    return sha256(json.dumps(aggregate, indent=2).encode("utf-8"))


@pytest.mark.parametrize("name", sorted(BATCHES))
def test_batch_bytes_are_pinned(name, tmp_path):
    cli.run_batch(cli.parse_config(BATCHES[name]), tmp_path)
    assert batch_hashes(tmp_path) == GOLDEN[name]
    assert file_order_hash(tmp_path) == GOLDEN_FILE_ORDER[name]


@pytest.mark.parametrize("name", sorted(SCENARIO_REPORTS))
def test_scenario_report_bytes_are_pinned(name, tmp_path):
    args, digest = SCENARIO_REPORTS[name]
    assert cli.main(["scenario", name, *args, "-o", str(tmp_path)]) == 0
    assert sha256((tmp_path / f"{name}.json").read_bytes()) == digest


def test_comparison_limits_are_pinned():
    limits = scenarios.run_comparison(5, seed=0, replicates=20).compass_limits
    assert sha256(repr(limits).encode("utf-8")) == GOLDEN_COMPARISON_LIMITS
