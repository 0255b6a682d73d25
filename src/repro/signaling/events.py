"""Radio-interface events collected inside the visited MNO.

The MNO dataset processes "logs reporting on activities on IuCS, IuPS, A,
and Gb radio interfaces … Each event carries the anonymized user ID, SIM
MCC and MNC, TAC, the sector ID handling the communication, timestamp,
event type, event result code" (§4.1).  :class:`RadioEvent` is that
record; :class:`RadioInterface` maps each interface to the RAT and plane
(circuit-switched voice vs packet-switched data) it carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Tuple

from repro.cellular.rats import RAT
from repro.signaling.procedures import (
    INT64_MAX,
    INT64_MIN,
    MessageType,
    ResultCode,
    check_timestamp,
)


class RadioInterface(str, Enum):
    """The monitored interface an event was captured on.

    =========  ====  =======================
    interface  RAT   plane
    =========  ====  =======================
    A          2G    circuit-switched (voice)
    Gb         2G    packet-switched (data)
    IuCS       3G    circuit-switched (voice)
    IuPS       3G    packet-switched (data)
    S1         4G    packet-switched (data)
    =========  ====  =======================
    """

    A = "A"
    GB = "Gb"
    IU_CS = "IuCS"
    IU_PS = "IuPS"
    S1 = "S1"

    @property
    def rat(self) -> RAT:
        return {
            RadioInterface.A: RAT.GSM,
            RadioInterface.GB: RAT.GSM,
            RadioInterface.IU_CS: RAT.UMTS,
            RadioInterface.IU_PS: RAT.UMTS,
            RadioInterface.S1: RAT.LTE,
        }[self]

    @property
    def is_voice(self) -> bool:
        """Circuit-switched interfaces carry voice (and SMS-like traffic;
        the paper uses "voice services in a broad sense")."""
        return self in (RadioInterface.A, RadioInterface.IU_CS)

    @property
    def is_data(self) -> bool:
        return not self.is_voice

    @classmethod
    def for_plane(cls, rat: RAT, voice: bool) -> "RadioInterface":
        """The interface carrying ``rat`` traffic on the given plane.

        4G has no circuit-switched plane in this model; requesting a 4G
        voice interface raises (M2M devices and feature phones on LTE are
        rare enough in the paper's data that we can exclude CSFB/VoLTE).
        """
        try:
            return _PLANE_TABLE[(rat, voice)]
        except KeyError:
            raise ValueError(f"no {'voice' if voice else 'data'} interface for {rat.value}") from None


_PLANE_TABLE = {
    (RAT.GSM, True): RadioInterface.A,
    (RAT.GSM, False): RadioInterface.GB,
    (RAT.UMTS, True): RadioInterface.IU_CS,
    (RAT.UMTS, False): RadioInterface.IU_PS,
    (RAT.LTE, False): RadioInterface.S1,
}


def check_radio_event(
    device_id: str, timestamp: float, sim_plmn: str, tac: int, sector_id: int
) -> None:
    """The invariants of one radio event; raises on the first broken one.

    :class:`RadioEvent` and the wire's row loop
    (:func:`repro.service.protocol.parse_batch_rows`) run it;
    :func:`repro.columnar.store.check_stores` is its whole-store form.
    A ``ValueError`` is an ingest *semantic* error; a ``TypeError``
    or ``AttributeError``, a wrongly-typed value, is *schema*.  The
    checks after the TAC range keep out what the int64 and interned
    columns cannot hold; they run last, so earlier rejections keep their
    message.
    """
    if timestamp < 0:
        raise ValueError(f"negative timestamp {timestamp}")
    if not sim_plmn.isdigit() or len(sim_plmn) not in (5, 6):
        raise ValueError(f"SIM PLMN must be 5-6 digits, got {sim_plmn!r}")
    if not 0 <= tac < 10**8:
        raise ValueError(f"TAC must be 8 digits, got {tac}")
    if not isinstance(device_id, str):
        raise TypeError(f"device id must be a string, got {device_id!r}")
    check_timestamp(timestamp)
    if not INT64_MIN <= sector_id <= INT64_MAX:
        raise ValueError(f"sector id {sector_id} does not fit in int64")


@dataclass(frozen=True)
class RadioEvent:
    """One radio-interface log record from the MNO's passive probes."""

    device_id: str
    timestamp: float
    sim_plmn: str
    tac: int
    sector_id: int
    interface: RadioInterface
    event_type: MessageType
    result: ResultCode

    def __post_init__(self) -> None:
        check_radio_event(
            self.device_id, self.timestamp, self.sim_plmn, self.tac, self.sector_id
        )

    @property
    def rat(self) -> RAT:
        return self.interface.rat

    @property
    def day(self) -> int:
        return int(self.timestamp // 86400)

    @property
    def is_success(self) -> bool:
        return self.result.is_success


#: Canonical, index-stable interface order: :mod:`repro.columnar` encodes
#: each event's interface as an index into this tuple, so shard workers
#: and persisted column blocks agree on the mapping.  Append-only — any
#: reordering changes the meaning of every encoded block.
RADIO_INTERFACES: Tuple[RadioInterface, ...] = tuple(RadioInterface)
