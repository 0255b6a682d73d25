"""The paper's primary contribution: the device-classification pipeline.

Given the raw records a visited MNO collects (radio events, CDR/xDR,
GSMA TAC catalog), this package:

1. builds the daily *devices-catalog* (:mod:`repro.core.catalog`),
2. assigns each device a roaming label ``<X:Y>``
   (:mod:`repro.core.roaming`),
3. classifies devices into smart / feat / m2m / m2m-maybe through the
   multi-step APN-and-properties method of §4.3
   (:mod:`repro.core.classifier`), and
4. validates the classification against ground truth
   (:mod:`repro.core.validation`).

Supporting pieces: APN parsing and the keyword→vertical inventory
(:mod:`repro.core.apn`) and dwell-weighted mobility metrics
(:mod:`repro.core.mobility`).
"""

from repro.core.apn import (
    APN,
    APNKind,
    classify_apn,
    default_keyword_inventory,
    parse_apn,
)
from repro.core.catalog import (
    CatalogBuilder,
    DeviceDayRecord,
    DeviceSummary,
)
from repro.core.classifier import ClassLabel, ClassifierConfig, DeviceClassifier
from repro.core.mobility import daily_mobility_from_pairs, MobilityMetrics
from repro.core.roaming import RoamingLabel, RoamingLabeler, SimOrigin, VisitedSide
from repro.core.validation import ValidationReport, validate_classification

__all__ = [
    "APN",
    "APNKind",
    "CatalogBuilder",
    "ClassLabel",
    "ClassifierConfig",
    "DeviceClassifier",
    "DeviceDayRecord",
    "DeviceSummary",
    "MobilityMetrics",
    "RoamingLabel",
    "RoamingLabeler",
    "SimOrigin",
    "ValidationReport",
    "VisitedSide",
    "classify_apn",
    "daily_mobility_from_pairs",
    "default_keyword_inventory",
    "parse_apn",
    "validate_classification",
]
