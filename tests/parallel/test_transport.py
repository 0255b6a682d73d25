"""Shard blocks across the pool seam: round-trips and edge cases.

``publish_shards`` packs each shard into one self-contained RPCK
column block (the codec checkpoints and the WAL use); a worker rebuilds
the shard from that block alone with ``unpack_day_block``.  Every test
decodes the published blocks and compares them row for row with the
shards that went in.
"""

import pytest

from repro.columnar import from_record_streams
from repro.columnar.blocks import MAGIC, unpack_day_block
from repro.parallel.executor import publish_shards
from repro.parallel.sharding import shard_columnar_records


def assert_shards_equal(left, right):
    """Store equality via full row materialization (order included)."""
    left_events, left_records = left
    right_events, right_records = right
    assert left_events.to_rows() == right_events.to_rows()
    assert left_records.to_rows() == right_records.to_rows()


#: The one block format on the pool seam, keyed by its frame magic.
rpck = pytest.mark.parametrize("magic", [MAGIC], ids=["rpck"])


def decode(block, magic=MAGIC):
    """Worker side: the shard's two stores, as the executor decodes them."""
    assert bytes(block[: len(magic)]) == magic
    return unpack_day_block(block)


@pytest.fixture(scope="module")
def columnar_dataset(mno_dataset):
    return from_record_streams(
        mno_dataset.radio_events, mno_dataset.service_records
    )


@pytest.fixture(scope="module")
def shards(columnar_dataset):
    events_c, records_c = columnar_dataset
    return shard_columnar_records(events_c, records_c, 4)


@rpck
def test_shard_descriptor_roundtrip(shards, magic):
    """What the pool ships for each shard is one block, nothing else."""
    blocks = publish_shards(shards)
    assert len(blocks) == len(shards)
    for shard, block in zip(shards, blocks):
        assert_shards_equal(shard, decode(block, magic))


def test_shard_blocks_are_self_contained(shards):
    """Each block carries its own pool vocabularies: decoding one needs
    no other block and no state from the publisher."""
    blocks = publish_shards(shards)
    assert all(isinstance(block, bytes) for block in blocks)
    for shard, block in zip(reversed(shards), reversed(blocks)):
        events, records = decode(bytes(block))
        assert events.pools is records.pools
        assert events.pools is not shard[0].pools
        assert_shards_equal(shard, (events, records))


@rpck
def test_empty_shard_roundtrip(magic):
    events_c, records_c = from_record_streams([], [])
    empty = shard_columnar_records(events_c, records_c, 3)
    assert len(empty) == 3
    for shard, block in zip(empty, publish_shards(empty)):
        decoded = decode(block, magic)
        assert len(decoded[0]) == 0
        assert len(decoded[1]) == 0
        assert_shards_equal(shard, decoded)


@rpck
def test_single_device_shard_roundtrip(mno_dataset, magic):
    """One device, four shards: every row lands in one shard, the other
    shards publish empty blocks, and all of them round-trip."""
    device = mno_dataset.radio_events[0].device_id
    events = [e for e in mno_dataset.radio_events if e.device_id == device]
    records = [r for r in mno_dataset.service_records if r.device_id == device]
    events_c, records_c = from_record_streams(events, records)
    lone = shard_columnar_records(events_c, records_c, 4)
    occupied = [shard for shard in lone if len(shard[0]) or len(shard[1])]
    assert len(occupied) == 1
    for shard, block in zip(lone, publish_shards(lone)):
        assert_shards_equal(shard, decode(block, magic))


def test_publish_empty_shard_list():
    assert publish_shards([]) == []
