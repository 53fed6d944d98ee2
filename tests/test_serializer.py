"""The serializer sizes exactly what JSON encodes: any other type, a set
and a subclass of a JSON type included, raises."""

import json

import pytest

from repro.lib.serializer import FRAMING_OVERHEAD, SerializationError, estimate_size


class Record(dict):
    pass


class Label(str):
    pass


@pytest.mark.parametrize("payload", [
    object(), b"bytes", [1, b"bytes"], {"key": object()},
    {1, 2}, frozenset({3}), Record(method="walk"), Label("walk"), {"args": [Record(hops=3)]},
], ids=["object", "bytes", "bytes-in-list", "object-in-dict",
        "set", "frozenset", "dict-subclass", "str-subclass", "dict-subclass-in-list"])
def test_an_unsendable_payload_raises_serialization_error(payload):
    with pytest.raises(SerializationError, match="cannot serialise"):
        estimate_size(payload)


def test_a_plain_payload_is_sized_as_its_compact_json():
    payload = {"method": "walk", "hops": 3, "avoid": [1, 2], "ok": True,
               "none": None, "rate": 0.5, "empty": [], "nested": {"ids": [4, 5]}}
    encoded = json.dumps(payload, separators=(",", ":"))
    assert estimate_size(payload) == len(encoded) + FRAMING_OVERHEAD
