"""Call Detail Records and eXtended Detail Records (service usage).

"We use CDRs and xDRs to provide aggregate service usage for calls and
data.  Each record reports the anonymized user ID, MCC and MNC codes for
both device SIM and visited country, timestamp, duration, and bytes
consumed.  Data records also report APN strings" (§4.1).

Unlike radio logs, CDRs/xDRs also cover *outbound* roamers — they are the
records roaming partners exchange to settle revenue, which is why the
roaming-label pipeline can see devices that never touch the home radio
network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

from repro.signaling.procedures import INT64_MAX, check_timestamp


class ServiceType(str, Enum):
    """What the record bills for."""

    VOICE = "voice"
    DATA = "data"


#: Canonical, index-stable service-type order for columnar encodings
#: (:mod:`repro.columnar` stores the service plane as an index into this
#: tuple).  Append-only.
SERVICE_TYPES: Tuple[ServiceType, ...] = tuple(ServiceType)


def check_service_record(
    device_id: str,
    timestamp: float,
    sim_plmn: str,
    visited_plmn: str,
    service: ServiceType,
    duration_s: float,
    bytes_total: int,
    apn: Optional[str],
) -> None:
    """The invariants of one service record; raises on the first broken one.

    Shared like :func:`repro.signaling.events.check_radio_event`; the
    checks from the device id on keep out what the int64 and interned
    columns cannot hold.
    """
    if timestamp < 0:
        raise ValueError(f"negative timestamp {timestamp}")
    for label, plmn in (("sim", sim_plmn), ("visited", visited_plmn)):
        if not plmn.isdigit() or len(plmn) not in (5, 6):
            raise ValueError(f"{label} PLMN must be 5-6 digits, got {plmn!r}")
    if duration_s < 0:
        raise ValueError(f"negative duration {duration_s}")
    if bytes_total < 0:
        raise ValueError(f"negative byte count {bytes_total}")
    if service is ServiceType.VOICE and apn is not None:
        raise ValueError("voice CDRs carry no APN")
    if service is ServiceType.DATA and duration_s:
        # Data usage is accounted in bytes; duration belongs to voice.
        raise ValueError("data xDRs carry bytes, not call duration")
    if not isinstance(device_id, str):
        raise TypeError(f"device id must be a string, got {device_id!r}")
    check_timestamp(timestamp)
    if not math.isfinite(duration_s):
        raise ValueError(f"non-finite duration {duration_s}")
    if bytes_total > INT64_MAX:
        raise ValueError(f"byte count {bytes_total} does not fit in int64")
    if apn is not None and not isinstance(apn, str):
        raise TypeError(f"APN must be a string or null, got {apn!r}")


@dataclass(frozen=True)
class ServiceRecord:
    """One CDR (voice) or xDR (data) row.

    ``apn`` is present only on data records — the paper leans on this
    asymmetry: ~21% of devices have no APN at all because they only use
    voice services, defeating APN-only classification.
    """

    device_id: str
    timestamp: float
    sim_plmn: str
    visited_plmn: str
    service: ServiceType
    duration_s: float = 0.0
    bytes_total: int = 0
    apn: Optional[str] = None

    def __post_init__(self) -> None:
        check_service_record(
            self.device_id, self.timestamp, self.sim_plmn, self.visited_plmn,
            self.service, self.duration_s, self.bytes_total, self.apn,
        )

    @property
    def day(self) -> int:
        return int(self.timestamp // 86400)

    @property
    def is_voice(self) -> bool:
        return self.service is ServiceType.VOICE

    @property
    def is_data(self) -> bool:
        return self.service is ServiceType.DATA


def voice_cdr(
    device_id: str,
    timestamp: float,
    sim_plmn: str,
    visited_plmn: str,
    duration_s: float,
) -> ServiceRecord:
    """Convenience constructor for a voice CDR."""
    return ServiceRecord(
        device_id=device_id,
        timestamp=timestamp,
        sim_plmn=sim_plmn,
        visited_plmn=visited_plmn,
        service=ServiceType.VOICE,
        duration_s=duration_s,
    )


def data_xdr(
    device_id: str,
    timestamp: float,
    sim_plmn: str,
    visited_plmn: str,
    bytes_total: int,
    apn: Optional[str],
) -> ServiceRecord:
    """Convenience constructor for a data xDR."""
    return ServiceRecord(
        device_id=device_id,
        timestamp=timestamp,
        sim_plmn=sim_plmn,
        visited_plmn=visited_plmn,
        service=ServiceType.DATA,
        bytes_total=bytes_total,
        apn=apn,
    )
