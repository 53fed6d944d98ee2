"""The serializer's size walk outside its fast paths: a subclass of a JSON
type is sized as that type, and any other type raises."""

import pytest

from repro.lib.serializer import SerializationError, estimate_size
from repro.net.address import NodeRef


@pytest.mark.parametrize("payload", [object(), b"bytes", [1, b"bytes"], {"key": object()}],
                         ids=["object", "bytes", "bytes-in-list", "object-in-dict"])
def test_an_unsendable_payload_raises_serialization_error(payload):
    with pytest.raises(SerializationError, match="cannot serialise"):
        estimate_size(payload)


def test_a_dict_subclass_is_sized_like_the_equal_plain_dict():
    class Record(dict):
        pass

    plain = {"method": "walk", "hops": 3, "avoid": (1, 2), "ok": True, "none": None,
             "rate": 0.5, "empty": [], "node": NodeRef("10.0.0.1", 2000, 77),
             "nested": {"ids": [4, 5]}}
    subclass = Record(plain)
    assert type(subclass) is not dict  # not the walk's fast path: sized as its base
    assert estimate_size(subclass) == estimate_size(plain)
