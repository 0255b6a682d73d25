"""Mobility-management procedures, result codes and signaling transactions.

The M2M-platform dataset (§3.1) is a stream of transactions, each
reporting: a hashed device ID, a timestamp, the SIM's MCC-MNC, the visited
network's MCC-MNC, a message type (authentication, update location or
cancel location) and a message result (OK, RoamingNotAllowed,
UnknownSubscription, FeatureUnsupported, …).
:class:`SignalingTransaction` is that exact record.

The UK-MNO side additionally monitors Attach / Routing-Area-Update /
Detach procedures (§7.1); those share the same enums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Tuple

from repro.cellular.identifiers import mcc_of

#: Bounds of the int64 columns :mod:`repro.columnar` stores record
#: fields in (days, sector ids, byte counts).
INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


def check_timestamp(timestamp: float) -> None:
    """Reject a timestamp whose day the int64 ``days`` column cannot hold.

    Records call it after their negative-timestamp check; it rejects NaN,
    infinity and a day past int64.
    """
    if not math.isfinite(timestamp):
        raise ValueError(f"non-finite timestamp {timestamp}")
    if timestamp // 86400.0 > INT64_MAX:
        raise ValueError(f"timestamp {timestamp} is past the last int64 day")


class MessageType(str, Enum):
    """Control-plane procedure kinds observed by the probes."""

    AUTHENTICATION = "authentication"
    UPDATE_LOCATION = "update_location"
    CANCEL_LOCATION = "cancel_location"
    ATTACH = "attach"
    DETACH = "detach"
    ROUTING_AREA_UPDATE = "routing_area_update"

    @property
    def is_map_procedure(self) -> bool:
        """True for the HMNO-side (MAP/Diameter) procedures the M2M
        platform probes see."""
        return self in (
            MessageType.AUTHENTICATION,
            MessageType.UPDATE_LOCATION,
            MessageType.CANCEL_LOCATION,
        )


class ResultCode(str, Enum):
    """Procedure outcome, as reported in the signaling records."""

    OK = "OK"
    ROAMING_NOT_ALLOWED = "RoamingNotAllowed"
    UNKNOWN_SUBSCRIPTION = "UnknownSubscription"
    FEATURE_UNSUPPORTED = "FeatureUnsupported"
    SYSTEM_FAILURE = "SystemFailure"

    @property
    def is_success(self) -> bool:
        return self is ResultCode.OK

    @property
    def is_failure(self) -> bool:
        return not self.is_success


#: Canonical, index-stable enum orders for columnar/wire encodings:
#: :mod:`repro.columnar` stores message types and result codes as indices
#: into these tuples.  Append-only — reordering changes the meaning of
#: every encoded column block.
MESSAGE_TYPES: Tuple[MessageType, ...] = tuple(MessageType)
RESULT_CODES: Tuple[ResultCode, ...] = tuple(ResultCode)


@dataclass(frozen=True)
class SignalingTransaction:
    """One record of the M2M-platform signaling dataset.

    ``timestamp`` is seconds since the dataset epoch.  ``sim_plmn`` and
    ``visited_plmn`` are ``MCCMNC`` strings; keeping them as strings
    matches the wire format and makes the record trivially serializable.
    """

    device_id: str
    timestamp: float
    sim_plmn: str
    visited_plmn: str
    message_type: MessageType
    result: ResultCode

    def __post_init__(self) -> None:
        # The checks after the PLMNs run last, as in check_radio_event, so
        # earlier rejections keep their message.
        if self.timestamp < 0:
            raise ValueError(f"negative timestamp {self.timestamp}")
        for label, plmn in (("sim", self.sim_plmn), ("visited", self.visited_plmn)):
            if not plmn.isdigit() or len(plmn) not in (5, 6):
                raise ValueError(f"{label} PLMN must be 5-6 digits, got {plmn!r}")
        if not isinstance(self.device_id, str):
            raise TypeError(f"device id must be a string, got {self.device_id!r}")
        check_timestamp(self.timestamp)

    @property
    def sim_mcc(self) -> int:
        return mcc_of(self.sim_plmn)

    @property
    def visited_mcc(self) -> int:
        return mcc_of(self.visited_plmn)

    @property
    def is_roaming(self) -> bool:
        """Roaming at the international level: SIM and visited MCC differ.

        National roaming (same MCC, different MNC) is not roaming from
        the M2M platform's country-footprint point of view, matching how
        §3 counts "non-roaming (native)" devices.
        """
        return self.sim_mcc != self.visited_mcc

    @property
    def day(self) -> int:
        """Zero-based day index within the observation window."""
        return int(self.timestamp // 86400)
