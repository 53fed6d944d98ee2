"""Every hash a run computes is bit-identical to ``hashlib``'s.

A run takes its SHA-1 and SHA-256 from :mod:`repro.sim.rng`, which uses the
interpreter's built-in SHA modules (``_sha1`` with ``_sha256`` on 3.10/3.11,
``_sha2`` on 3.12+) so that no run maps OpenSSL. The seeds, node ids and
report digests they give must be the ones ``hashlib`` gives, on every
interpreter the tests run on.
"""

import hashlib
import json
import random

import pytest

from repro.apps.harness import deterministic_report_view, report_digest
from repro.lib.ring import hash_key
from repro.sim import rng
from repro.sim.rng import substream

INPUTS = [b"", b"a", b"10.0.0.1:4000", "néud-7".encode("utf-8"), bytes(range(256)) * 5]

def _input_id(data):
    return f"{type(data).__name__}{len(data)}"


LABELS = [
    (),
    (0,),
    (7, 12345678901234567890),
    ("latency",),
    ("latency", 3),
    (("host", 4), "loss"),
    (("job", 1, ("node", 2)),),
]


def _reference_substream(seed, *labels):
    digest = hashlib.sha256(str(seed).encode("utf-8"))
    for label in labels:
        digest.update(b"\x1f" + repr(label).encode("utf-8"))
    return random.Random(int.from_bytes(digest.digest()[:8], "big"))


@pytest.mark.parametrize("data", INPUTS, ids=_input_id)
def test_the_hash_site_gives_hashlibs_digests(data):
    assert rng.sha1(data).digest() == hashlib.sha1(data).digest()
    assert rng.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
    incremental = rng.sha256()
    for start in range(0, len(data), 100):
        incremental.update(data[start:start + 100])
    assert incremental.digest() == hashlib.sha256(data).digest()


@pytest.mark.parametrize("seed", [0, 1, 42, 2**63 + 5])
@pytest.mark.parametrize("labels", LABELS)
def test_substream_draws_match_a_hashlib_derived_seed(seed, labels):
    ours, reference = substream(seed, *labels), _reference_substream(seed, *labels)
    assert [ours.random() for _ in range(3)] == [reference.random() for _ in range(3)]
    assert ours.getrandbits(64) == reference.getrandbits(64)


@pytest.mark.parametrize("bits", [16, 32, 160])
@pytest.mark.parametrize("data", INPUTS + ["10.0.0.1:4000", "clé"], ids=_input_id)
def test_hash_key_matches_hashlib_sha1(bits, data):
    raw = data.encode("utf-8") if isinstance(data, str) else data
    expected = int.from_bytes(hashlib.sha1(raw).digest(), "big") >> (160 - bits)
    assert hash_key(data, bits) == expected


def test_report_digest_matches_hashlib_sha256_on_a_fixed_report():
    report = {"workload": "chord", "seed": 3, "ok_rate": 0.995,
              "latency_ms": {"p50": 41.25, "p99": 180.0}, "nodes": [1, 2, 3],
              "phase_wall": {"deploy": 1.5}, "metrics": {"rpc": 7}}
    view = deterministic_report_view(report)
    assert "phase_wall" not in view and "metrics" not in view
    encoded = json.dumps(view, sort_keys=True, default=str).encode("utf-8")
    assert report_digest(report) == hashlib.sha256(encoded).hexdigest()[:16]
