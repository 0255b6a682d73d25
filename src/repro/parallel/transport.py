"""Shards out as column blocks, results back as packed blocks.

The sharded executor (:mod:`repro.parallel.executor`) crosses the
process-pool seam one way in each direction:

- **Out.**  :func:`publish_shards` packs each device shard into one
  self-contained framed column block with
  :func:`~repro.columnar.blocks.pack_columns`, the codec checkpoints
  and the daemon's WAL already use.  The shard's pool
  vocabularies ride in the block header, so a worker decodes it with
  :func:`~repro.columnar.blocks.unpack_day_block` and nothing else.  The
  block rides the pool pipe as plain bytes: no OS resource is created,
  so nothing needs closing or sweeping after a crash.
- **Back.**  Workers return day records and summaries as one packed
  column block (:func:`pack_build_result`), never row-by-row pickled
  dataclasses; the devices a lenient build left out ride in its header.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cellular.geo import GeoPoint
from repro.cellular.rats import RAT, RadioFlags
from repro.cellular.tac_db import DeviceModel, DeviceOS, GSMALabel
from repro.columnar.blocks import (
    CheckpointCorruption,
    build_block,
    pack_columns,
    read_block,
)
from repro.columnar.store import (
    ColumnarRadioEvents,
    ColumnarServiceRecords,
    StringPool,
)
from repro.core.catalog import DeviceDayRecord, DeviceSummary, StageFailure
from repro.core.mobility import MobilityMetrics
from repro.core.roaming import RoamingLabel, SimOrigin, VisitedSide

# -- enum index tables (definition order is the wire order) ------------------

_SIM_ORIGINS = tuple(SimOrigin)
_VISITED_SIDES = tuple(VisitedSide)
_DEVICE_OSES = tuple(DeviceOS)
_GSMA_LABELS = tuple(GSMALabel)
_RATS = tuple(RAT)

_SIM_ORIGIN_INDEX = {member: index for index, member in enumerate(_SIM_ORIGINS)}
_VISITED_SIDE_INDEX = {member: index for index, member in enumerate(_VISITED_SIDES)}
_DEVICE_OS_INDEX = {member: index for index, member in enumerate(_DEVICE_OSES)}
_GSMA_LABEL_INDEX = {member: index for index, member in enumerate(_GSMA_LABELS)}

#: A sentinel for "no value" in id/index columns (tac, model…).
_NONE = -1

#: One shard of the columnar plane: (radio events, service records).
ColumnarShard = Tuple[ColumnarRadioEvents, ColumnarServiceRecords]


def publish_shards(shards: Sequence[ColumnarShard]) -> List[bytes]:
    """Pack each shard into one self-contained column block, in order."""
    return [pack_columns(events, records) for events, records in shards]


# -- packed result blocks ----------------------------------------------------
#
# Workers return results as framed column blocks too: numeric fields as
# raw array buffers, strings interned into a per-block vocabulary,
# frozensets as (length, flat ids) pairs, enums as indices into the
# definition-order tables above.  Round-trips are exact (floats travel
# as 8-byte doubles, never text), so the serial-vs-sharded byte-equality
# contract survives the codec.

_NamedArrays = List[Tuple[str, array]]


def _array_chunks(named: _NamedArrays) -> Tuple[List[List[Any]], List[bytes]]:
    specs: List[List[Any]] = []
    chunks: List[bytes] = []
    for name, column in named:
        data = column.tobytes()
        specs.append([name, column.typecode, len(data)])
        chunks.append(data)
    return specs, chunks


def _arrays_from(
    specs: Sequence[Sequence[Any]], body: bytes, offset: int
) -> Tuple[Dict[str, array], int]:
    columns: Dict[str, array] = {}
    for name, typecode, nbytes in specs:
        column = array(typecode)
        column.frombytes(body[offset:offset + nbytes])
        offset += nbytes
        columns[name] = column
    return columns, offset


def _pack_frozenset(
    values: Iterable[str],
    lengths: array,
    flat: array,
    intern: Any,
) -> None:
    ordered = sorted(values)
    lengths.append(len(ordered))
    flat.extend(map(intern, ordered))


def _record_arrays(
    records: Sequence[DeviceDayRecord], strings: StringPool
) -> _NamedArrays:
    dev = array("q")
    day = array("q")
    sim = array("q")
    n_events = array("q")
    n_failed = array("q")
    n_calls = array("q")
    voice_minutes = array("d")
    n_data = array("q")
    bytes_total = array("q")
    radio = array("b")
    voice = array("b")
    data_plane = array("b")
    home = array("b")
    visited_len = array("q")
    visited_flat = array("q")
    apns_len = array("q")
    apns_flat = array("q")
    mob_flag = array("b")
    mob_lat = array("d")
    mob_lon = array("d")
    mob_gyration = array("d")
    mob_sectors = array("q")
    intern = strings.intern
    for record in records:
        dev.append(intern(record.device_id))
        day.append(record.day)
        sim.append(intern(record.sim_plmn))
        n_events.append(record.n_events)
        n_failed.append(record.n_failed_events)
        n_calls.append(record.n_calls)
        voice_minutes.append(record.voice_minutes)
        n_data.append(record.n_data_sessions)
        bytes_total.append(record.bytes_total)
        radio.append(record.radio_flags.mask)
        voice.append(record.voice_flags.mask)
        data_plane.append(record.data_flags.mask)
        home.append(1 if record.on_home_network else 0)
        _pack_frozenset(record.visited_plmns, visited_len, visited_flat, intern)
        _pack_frozenset(record.apns, apns_len, apns_flat, intern)
        mobility = record.mobility
        if mobility is None:
            mob_flag.append(0)
        else:
            mob_flag.append(1)
            mob_lat.append(mobility.centroid.lat)
            mob_lon.append(mobility.centroid.lon)
            mob_gyration.append(mobility.gyration_km)
            mob_sectors.append(mobility.n_sectors)
    return [
        ("r_dev", dev),
        ("r_day", day),
        ("r_sim", sim),
        ("r_events", n_events),
        ("r_failed", n_failed),
        ("r_calls", n_calls),
        ("r_voice_min", voice_minutes),
        ("r_data", n_data),
        ("r_bytes", bytes_total),
        ("r_radio", radio),
        ("r_voice", voice),
        ("r_data_flags", data_plane),
        ("r_home", home),
        ("r_visited_len", visited_len),
        ("r_visited_flat", visited_flat),
        ("r_apns_len", apns_len),
        ("r_apns_flat", apns_flat),
        ("r_mob_flag", mob_flag),
        ("r_mob_lat", mob_lat),
        ("r_mob_lon", mob_lon),
        ("r_mob_gyration", mob_gyration),
        ("r_mob_sectors", mob_sectors),
    ]


def _unpack_sets(
    lengths: array, flat: array, strings: Sequence[str]
) -> List[Any]:
    sets: List[Any] = []
    offset = 0
    for count in lengths:
        sets.append(
            frozenset(strings[flat[i]] for i in range(offset, offset + count))
        )
        offset += count
    return sets


def _day_records_from(
    columns: Dict[str, array], strings: Sequence[str]
) -> List[DeviceDayRecord]:
    visited_sets = _unpack_sets(
        columns["r_visited_len"], columns["r_visited_flat"], strings
    )
    apn_sets = _unpack_sets(columns["r_apns_len"], columns["r_apns_flat"], strings)
    records: List[DeviceDayRecord] = []
    mob_offset = 0
    mob_lat = columns["r_mob_lat"]
    mob_lon = columns["r_mob_lon"]
    mob_gyration = columns["r_mob_gyration"]
    mob_sectors = columns["r_mob_sectors"]
    for i in range(len(columns["r_dev"])):
        mobility: Optional[MobilityMetrics] = None
        if columns["r_mob_flag"][i]:
            mobility = MobilityMetrics(
                centroid=GeoPoint(mob_lat[mob_offset], mob_lon[mob_offset]),
                gyration_km=mob_gyration[mob_offset],
                n_sectors=mob_sectors[mob_offset],
            )
            mob_offset += 1
        records.append(
            DeviceDayRecord(
                device_id=strings[columns["r_dev"][i]],
                day=columns["r_day"][i],
                sim_plmn=strings[columns["r_sim"][i]],
                visited_plmns=visited_sets[i],
                n_events=columns["r_events"][i],
                n_failed_events=columns["r_failed"][i],
                n_calls=columns["r_calls"][i],
                voice_minutes=columns["r_voice_min"][i],
                n_data_sessions=columns["r_data"][i],
                bytes_total=columns["r_bytes"][i],
                apns=apn_sets[i],
                radio_flags=RadioFlags(columns["r_radio"][i]),
                voice_flags=RadioFlags(columns["r_voice"][i]),
                data_flags=RadioFlags(columns["r_data_flags"][i]),
                mobility=mobility,
                on_home_network=bool(columns["r_home"][i]),
            )
        )
    return records


def _encode_model(model: DeviceModel) -> List[Any]:
    bands_mask = 0
    for index, rat in enumerate(_RATS):
        if rat in model.bands:
            bands_mask |= 1 << index
    return [
        model.tac,
        model.manufacturer,
        model.brand,
        model.model_name,
        _DEVICE_OS_INDEX[model.os],
        bands_mask,
        _GSMA_LABEL_INDEX[model.label],
    ]


def _decode_model(entry: Sequence[Any]) -> DeviceModel:
    tac, manufacturer, brand, model_name, os_index, bands_mask, label_index = entry
    bands = frozenset(
        rat for index, rat in enumerate(_RATS) if bands_mask >> index & 1
    )
    return DeviceModel(
        tac=tac,
        manufacturer=manufacturer,
        brand=brand,
        model_name=model_name,
        os=_DEVICE_OSES[os_index],
        bands=bands,
        label=_GSMA_LABELS[label_index],
    )


def _summary_arrays(
    summaries: Iterable[DeviceSummary],
    strings: StringPool,
    models: List[DeviceModel],
    model_index: Dict[DeviceModel, int],
) -> _NamedArrays:
    dev = array("q")
    sim = array("q")
    label_sim = array("b")
    label_visited = array("b")
    active_days = array("q")
    n_events = array("q")
    n_failed = array("q")
    n_calls = array("q")
    voice_minutes = array("d")
    n_data = array("q")
    bytes_total = array("q")
    apns_len = array("q")
    apns_flat = array("q")
    visited_len = array("q")
    visited_flat = array("q")
    radio = array("b")
    voice = array("b")
    data_plane = array("b")
    tac = array("q")
    model_ids = array("q")
    gyration_flag = array("b")
    gyration = array("d")
    intern = strings.intern
    for summary in summaries:
        dev.append(intern(summary.device_id))
        sim.append(intern(summary.sim_plmn))
        label_sim.append(_SIM_ORIGIN_INDEX[summary.label.sim])
        label_visited.append(_VISITED_SIDE_INDEX[summary.label.visited])
        active_days.append(summary.active_days)
        n_events.append(summary.n_events)
        n_failed.append(summary.n_failed_events)
        n_calls.append(summary.n_calls)
        voice_minutes.append(summary.voice_minutes)
        n_data.append(summary.n_data_sessions)
        bytes_total.append(summary.bytes_total)
        _pack_frozenset(summary.apns, apns_len, apns_flat, intern)
        _pack_frozenset(summary.visited_plmns, visited_len, visited_flat, intern)
        radio.append(summary.radio_flags.mask)
        voice.append(summary.voice_flags.mask)
        data_plane.append(summary.data_flags.mask)
        tac.append(_NONE if summary.tac is None else summary.tac)
        model = summary.model
        if model is None:
            model_ids.append(_NONE)
        else:
            hit = model_index.get(model)
            if hit is None:
                hit = len(models)
                model_index[model] = hit
                models.append(model)
            model_ids.append(hit)
        if summary.mean_gyration_km is None:
            gyration_flag.append(0)
        else:
            gyration_flag.append(1)
            gyration.append(summary.mean_gyration_km)
    return [
        ("s_dev", dev),
        ("s_sim", sim),
        ("s_label_sim", label_sim),
        ("s_label_visited", label_visited),
        ("s_active", active_days),
        ("s_events", n_events),
        ("s_failed", n_failed),
        ("s_calls", n_calls),
        ("s_voice_min", voice_minutes),
        ("s_data", n_data),
        ("s_bytes", bytes_total),
        ("s_apns_len", apns_len),
        ("s_apns_flat", apns_flat),
        ("s_visited_len", visited_len),
        ("s_visited_flat", visited_flat),
        ("s_radio", radio),
        ("s_voice", voice),
        ("s_data_flags", data_plane),
        ("s_tac", tac),
        ("s_model", model_ids),
        ("s_gyration_flag", gyration_flag),
        ("s_gyration", gyration),
    ]


def _summaries_from(
    columns: Dict[str, array],
    strings: Sequence[str],
    models: Sequence[DeviceModel],
) -> Dict[str, DeviceSummary]:
    apn_sets = _unpack_sets(columns["s_apns_len"], columns["s_apns_flat"], strings)
    visited_sets = _unpack_sets(
        columns["s_visited_len"], columns["s_visited_flat"], strings
    )
    summaries: Dict[str, DeviceSummary] = {}
    gyration_offset = 0
    gyration = columns["s_gyration"]
    for i in range(len(columns["s_dev"])):
        mean_gyration: Optional[float] = None
        if columns["s_gyration_flag"][i]:
            mean_gyration = gyration[gyration_offset]
            gyration_offset += 1
        tac_value = columns["s_tac"][i]
        model_id = columns["s_model"][i]
        device_id = strings[columns["s_dev"][i]]
        summaries[device_id] = DeviceSummary(
            device_id=device_id,
            sim_plmn=strings[columns["s_sim"][i]],
            label=RoamingLabel(
                sim=_SIM_ORIGINS[columns["s_label_sim"][i]],
                visited=_VISITED_SIDES[columns["s_label_visited"][i]],
            ),
            active_days=columns["s_active"][i],
            n_events=columns["s_events"][i],
            n_failed_events=columns["s_failed"][i],
            n_calls=columns["s_calls"][i],
            voice_minutes=columns["s_voice_min"][i],
            n_data_sessions=columns["s_data"][i],
            bytes_total=columns["s_bytes"][i],
            apns=apn_sets[i],
            visited_plmns=visited_sets[i],
            radio_flags=RadioFlags(columns["s_radio"][i]),
            voice_flags=RadioFlags(columns["s_voice"][i]),
            data_flags=RadioFlags(columns["s_data_flags"][i]),
            tac=None if tac_value == _NONE else tac_value,
            model=None if model_id == _NONE else models[model_id],
            mean_gyration_km=mean_gyration,
        )
    return summaries


def pack_build_result(
    records: Sequence[DeviceDayRecord],
    summaries: Dict[str, DeviceSummary],
    failures: Iterable[StageFailure],
) -> bytes:
    """A worker's result: catalog, summaries and the devices it left out."""
    strings = StringPool()
    models: List[DeviceModel] = []
    model_index: Dict[DeviceModel, int] = {}
    named = _record_arrays(records, strings)
    named += _summary_arrays(summaries.values(), strings, models, model_index)
    specs, chunks = _array_chunks(named)
    header: Dict[str, Any] = {
        "kind": "build_result",
        "columns": specs,
        "failures": [[f.device_id, f.stage, f.error] for f in failures],
        "models": [_encode_model(model) for model in models],
        "strings": list(strings.strings),
    }
    return build_block(header, chunks)


def unpack_build_result(
    data: bytes,
) -> Tuple[List[DeviceDayRecord], Dict[str, DeviceSummary], List[StageFailure]]:
    """Decode a :func:`pack_build_result` block."""
    header, body, offset = read_block(data)
    if header.get("kind") != "build_result":
        raise CheckpointCorruption(
            f"expected a build_result block, got kind {header.get('kind')!r}"
        )
    columns, _ = _arrays_from(header["columns"], body, offset)
    strings = header["strings"]
    models = [_decode_model(entry) for entry in header["models"]]
    failures = [
        StageFailure(device_id, stage, error)
        for device_id, stage, error in header["failures"]
    ]
    return (
        _day_records_from(columns, strings),
        _summaries_from(columns, strings, models),
        failures,
    )
