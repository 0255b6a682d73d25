"""Bounded-memory, day-by-day MNO dataset generation.

The in-memory :class:`~repro.mno.simulator.MNOSimulator` materializes
the whole 22-day record set at once — fine at bench scale, hopeless at
the paper's 39.6M devices.  :class:`StreamingMNOSimulator` generates the
same record model *day by day*: each yielded :class:`DayBatch` holds
only one day's events, so memory stays O(devices + one day) and batches
can be written straight to JSONL partitions.

Each day's stores come from the batch simulator's column emitter
(:class:`~repro.mno.simulator.ColumnEmitter`), in process, and are
handed out as plain row lists.

Determinism note: every device draws each day from its own
per-(device, day) RNG substream (:func:`_device_day_rng`), so a day's
batch depends only on the config — not on which days were generated
before or how often.  The batch simulator draws
every device-day from one shared stream instead, so the two produce
statistically identical but not bitwise identical datasets for the same
seed.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

import numpy as np

from repro.datasets.containers import GroundTruthEntry
from repro.datasets.io import (
    IngestReport,
    ingest_radio_events,
    ingest_service_records,
    write_radio_events,
    write_service_records,
)
from repro.ecosystem import Ecosystem
from repro.faults.retry import RetryPolicy, call_with_retry
from repro.mno.config import MNOConfig
from repro.mno.population import PlannedDevice, PopulationBuilder
from repro.mno.simulator import ColumnEmitter, ground_truth_entry
from repro.signaling.cdr import ServiceRecord
from repro.signaling.events import RadioEvent

PathLike = Union[str, Path]

#: Substream salt for per-(device, day) generation streams — the same
#: child-stream idiom :mod:`repro.faults` uses, with a salt outside its
#: range so the two families can never collide on a shared seed.
_STREAM_DAY_GEN = 11


def _device_day_rng(seed: int, day: int, device_id: str) -> np.random.Generator:
    """Independent RNG substream for one device on one day.

    Keyed by (config seed, salt, day, CRC-32 of the device ID), so the
    stream a device draws from depends on nothing but the device and the
    day — not on iteration order.
    """
    return np.random.default_rng(
        [seed, _STREAM_DAY_GEN, day, zlib.crc32(device_id.encode("utf-8"))]
    )


@dataclass
class DayBatch:
    """One day's worth of generated records."""

    day: int
    radio_events: List[RadioEvent]
    service_records: List[ServiceRecord]

    @property
    def n_records(self) -> int:
        return len(self.radio_events) + len(self.service_records)


class StreamingMNOSimulator:
    """Day-by-day generator over the same population model.

    Usage::

        sim = StreamingMNOSimulator(eco, MNOConfig(n_devices=100_000))
        for batch in sim.days():
            write_radio_events(f"radio_{batch.day:02d}.jsonl", batch.radio_events)
    """

    def __init__(self, ecosystem: Ecosystem, config: Optional[MNOConfig] = None):
        self.ecosystem = ecosystem
        self.config = config or MNOConfig()
        self._population: Optional[List[PlannedDevice]] = None
        self._by_day: Dict[int, List[PlannedDevice]] = {}

    @property
    def population(self) -> List[PlannedDevice]:
        if self._population is None:
            self._population = PopulationBuilder(self.ecosystem, self.config).build()
            for plan in self._population:
                for day in plan.active_days:
                    self._by_day.setdefault(int(day), []).append(plan)
        return self._population

    def ground_truth(self) -> Dict[str, GroundTruthEntry]:
        """Ground truth for the full population (small; kept resident)."""
        return {plan.device_id: ground_truth_entry(plan) for plan in self.population}

    def generate_day(self, day: int) -> DayBatch:
        """Generate one day's records for every device active that day.

        Every device draws from its own per-(device, day) RNG substream
        (:func:`_device_day_rng`), so the batch is the same however
        often and in whatever order days are generated.  Records are
        sorted by ``(timestamp, device_id)``, so even tie order does not
        depend on the order devices are emitted in.
        """
        if not 0 <= day < self.config.window_days:
            raise ValueError(f"day {day} outside the {self.config.window_days}-day window")
        radio, service = self._day_rows(day)
        radio.sort(key=lambda e: (e.timestamp, e.device_id))
        service.sort(key=lambda r: (r.timestamp, r.device_id))
        return DayBatch(day=day, radio_events=radio, service_records=service)

    def _day_rows(self, day: int) -> Tuple[List[RadioEvent], List[ServiceRecord]]:
        """One day's rows, emitted device by device.  The emitter and
        its stores are freed on return, before the rows are sorted."""
        _ = self.population  # build the per-day index once
        emitter = ColumnEmitter(self.ecosystem)
        for plan in self._by_day.get(day, []):
            emitter.emit(plan, day, _device_day_rng(self.config.seed, day, plan.device_id))
        events, records = emitter.finish()
        return events.to_rows(), records.to_rows()

    def days(self) -> Iterator[DayBatch]:
        """Iterate the whole window, one bounded batch at a time."""
        for day in range(self.config.window_days):
            yield self.generate_day(day)

    def active_devices_on(self, day: int) -> Set[str]:
        """Device IDs scheduled to be active on ``day``."""
        _ = self.population
        return {plan.device_id for plan in self._by_day.get(day, [])}


# -- day-partition round trip -------------------------------------------------

def day_partition_paths(directory: PathLike, day: int) -> Tuple[Path, Path]:
    """(radio, service) JSONL paths for one day partition."""
    base = Path(directory)
    return base / f"radio_{day:02d}.jsonl", base / f"service_{day:02d}.jsonl"


def write_day_batch(directory: PathLike, batch: DayBatch) -> Tuple[Path, Path]:
    """Persist one :class:`DayBatch` as its two JSONL partitions."""
    radio_path, service_path = day_partition_paths(directory, batch.day)
    write_radio_events(radio_path, batch.radio_events)
    write_service_records(service_path, batch.service_records)
    return radio_path, service_path


def load_day_batch(
    directory: PathLike, day: int, lenient: bool = False
) -> Tuple[DayBatch, IngestReport]:
    """Read one day partition back into a :class:`DayBatch`.

    The returned :class:`IngestReport` merges both files' reports; in
    strict mode (default) any bad row raises with its file and line, in
    lenient mode bad rows are quarantined and the batch holds whatever
    survived, re-sorted by timestamp (dirty partitions may interleave
    out of order).
    """
    radio_path, service_path = day_partition_paths(directory, day)
    events, radio_report = ingest_radio_events(radio_path, lenient=lenient)
    records, service_report = ingest_service_records(service_path, lenient=lenient)
    events.sort(key=lambda e: e.timestamp)
    records.sort(key=lambda r: r.timestamp)
    batch = DayBatch(day=day, radio_events=events, service_records=records)
    return batch, radio_report.merge(service_report)


def load_day_batch_with_retry(
    directory: PathLike,
    day: int,
    lenient: bool = False,
    policy: Optional[RetryPolicy] = None,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[DayBatch, IngestReport]:
    """:func:`load_day_batch` under the sanctioned retry policy.

    Transient I/O failures (``OSError``: flaky network filesystems,
    partitions still being published) retry under ``policy`` — and,
    crucially, **no attempt's** :class:`IngestReport` is dropped on the
    floor: a report produced before the attempt failed on the other
    file is merged into the returned one, so every row read and every
    quarantined line across the retried loads stays accounted for in
    the pipeline's :class:`~repro.pipeline.DegradationReport`.  (The
    merged counts are per *read*: a day whose radio file was read twice
    reports both reads.)  Delays are drawn, never slept — the policy
    bounds attempts, retrying reads needs no pacing here.
    """
    retry_policy = policy if policy is not None else RetryPolicy()
    jitter_rng = rng if rng is not None else np.random.default_rng(0)
    radio_path, service_path = day_partition_paths(directory, day)
    dropped: List[IngestReport] = []

    def attempt() -> Tuple[DayBatch, IngestReport]:
        events, radio_report = ingest_radio_events(radio_path, lenient=lenient)
        try:
            records, service_report = ingest_service_records(
                service_path, lenient=lenient
            )
        except OSError:
            dropped.append(radio_report)
            raise
        events.sort(key=lambda e: e.timestamp)
        records.sort(key=lambda r: r.timestamp)
        batch = DayBatch(day=day, radio_events=events, service_records=records)
        return batch, radio_report.merge(service_report)

    batch, report = call_with_retry(
        attempt, retry_policy, jitter_rng, retry_on=(OSError,)
    )
    for partial in reversed(dropped):
        report = partial.merge(report)
    return batch, report
