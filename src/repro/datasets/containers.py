"""Dataset containers: the in-memory form of the paper's two datasets."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.cellular.operators import Operator
from repro.cellular.sectors import SectorCatalog
from repro.cellular.tac_db import TACDatabase
from repro.columnar.store import (
    ColumnarRadioEvents,
    ColumnarServiceRecords,
    RowSequence,
)
from repro.devices.device import DeviceClass, IoTVertical, SimProvenance
from repro.signaling.cdr import ServiceRecord
from repro.signaling.events import RadioEvent
from repro.signaling.procedures import SignalingTransaction


@dataclass(frozen=True)
class GroundTruthEntry:
    """Simulator-side truth for one device (never visible to pipelines).

    Used only by :mod:`repro.core.validation` to score the classifier,
    and by benches to report per-segment statistics.
    """

    device_id: str
    device_class: DeviceClass
    provenance: SimProvenance
    vertical: Optional[IoTVertical] = None
    profile: str = ""
    home_country_iso: str = ""
    smip_native: bool = False
    smip_roaming: bool = False


@dataclass
class M2MDataset:
    """The M2M-platform signaling dataset (§3.1).

    ``transactions`` is the full record stream; ``window_days`` the
    observation length (11 in the paper); ``hmno_isos`` the home
    countries of the platform's SIM-issuing operators.
    """

    transactions: List[SignalingTransaction]
    window_days: int
    hmno_isos: List[str]
    ground_truth: Dict[str, GroundTruthEntry] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.window_days <= 0:
            raise ValueError("window_days must be positive")

    @property
    def device_ids(self) -> Set[str]:
        return {t.device_id for t in self.transactions}

    @property
    def n_devices(self) -> int:
        return len(self.device_ids)

    @property
    def n_transactions(self) -> int:
        return len(self.transactions)

    def for_sim_mcc(self, mcc: int) -> List[SignalingTransaction]:
        """Transactions of devices whose SIM belongs to ``mcc``."""
        return [t for t in self.transactions if t.sim_mcc == mcc]


@dataclass
class MNODataset:
    """The visited-MNO dataset (§4.1): 22 days of everything the probes saw.

    ``radio_events`` cover every device attached to the MNO's radio
    network (no outbound roamers); ``service_records`` (CDR/xDR) also
    cover outbound roamers.  ``sector_catalog`` maps sector IDs to
    coordinates; ``tac_db`` is the GSMA-style catalog; ``observer`` is
    the MNO under study.

    The two streams are row sequences.  A simulated dataset holds them
    as :class:`~repro.columnar.store.RowSequence` views over interned
    column stores that share one pool set: :attr:`columns` hands those
    stores to the pipeline, which then interns nothing, and the rows are
    built once, on first access.  Datasets from file ingest, fault
    injection or ``dataclasses.replace`` with a list hold plain row
    lists, and :attr:`columns` is None.
    """

    observer: Operator
    radio_events: Sequence[RadioEvent]
    service_records: Sequence[ServiceRecord]
    tac_db: TACDatabase
    sector_catalog: SectorCatalog
    window_days: int
    ground_truth: Dict[str, GroundTruthEntry] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.window_days <= 0:
            raise ValueError("window_days must be positive")

    @property
    def columns(self) -> Optional[Tuple[ColumnarRadioEvents, ColumnarServiceRecords]]:
        """The interned stores behind both streams, or None.

        Present only when both streams are row views over stores that
        share one :class:`~repro.columnar.store.ColumnPools`; replacing
        either stream with a list drops them.
        """
        radio, service = self.radio_events, self.service_records
        if (
            isinstance(radio, RowSequence)
            and isinstance(service, RowSequence)
            and radio.store.pools is service.store.pools
        ):
            return radio.store, service.store
        return None

    @property
    def device_ids(self) -> Set[str]:
        columns = self.columns
        if columns is not None:
            # The simulator interns exactly the devices its rows name.
            return set(columns[0].pools.devices.strings)
        ids = {e.device_id for e in self.radio_events}
        ids.update(r.device_id for r in self.service_records)
        return ids

    @property
    def n_devices(self) -> int:
        return len(self.device_ids)

    def summary(self) -> Dict[str, int]:
        """Quick size counts, for logging and sanity checks."""
        return {
            "devices": self.n_devices,
            "radio_events": len(self.radio_events),
            "service_records": len(self.service_records),
            "window_days": self.window_days,
            "sectors": len(self.sector_catalog),
            "tac_models": len(self.tac_db),
        }
