"""The multi-step device classifier of §4.3.

The paper's method, reproduced step for step:

1. **APN keywords** — rank observed APNs by device count, match the
   curated keyword inventory, and mark every device using a validated
   M2M APN as ``m2m``.
2. **Property propagation** — extend ``m2m`` to all devices sharing the
   (manufacturer, model) properties of step-1 devices.  This is what
   rescues the ~21% of devices that expose no APN.
3. **GSMA + consumer-APN rules** — ``smart`` if the catalog declares a
   major smartphone OS and the device uses a consumer APN; ``feat`` if
   the catalog declares a feature phone or the device uses a consumer
   APN.
4. **Fallbacks** — remaining devices with smartphone/feature-phone
   catalog labels keep those classes; devices whose properties suggest
   neither, and for which no APN was ever observed (voice-only usage),
   become ``m2m-maybe`` — exactly the 4% residue the paper excludes from
   further analysis.

Every step can be disabled through :class:`ClassifierConfig`, which is
what the ablation bench exploits to quantify each step's contribution.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.cellular.tac_db import GSMALabel
from repro.core.apn import (
    APNKind,
    CONSUMER_KEYWORDS,
    KeywordInventory,
    classify_apn,
    default_keyword_inventory,
    parse_apn,
)
from repro.core.catalog import DeviceSummary
from repro.devices.device import IoTVertical


class ClassLabel(str, Enum):
    """Classifier output classes (§4.3)."""

    SMART = "smart"
    FEAT = "feat"
    M2M = "m2m"
    M2M_MAYBE = "m2m-maybe"


class ClassificationStep(str, Enum):
    """Which pipeline step produced a device's label (for diagnostics)."""

    APN_KEYWORD = "apn_keyword"
    PROPERTY_PROPAGATION = "property_propagation"
    OS_CONSUMER_APN = "os_consumer_apn"
    GSMA_LABEL = "gsma_label"
    NO_EVIDENCE = "no_evidence"


class Confidence(str, Enum):
    """How much trust a classification step deserves.

    Direct APN evidence and the OS+consumer-APN rule are HIGH (the APN
    names the vertical; the OS names the device).  Property propagation
    and catalog-only fallbacks are MEDIUM (shared hardware or a coarse
    GSMA label).  Abstentions are LOW by definition.
    """

    HIGH = "high"
    MEDIUM = "medium"
    LOW = "low"


_STEP_CONFIDENCE = {
    ClassificationStep.APN_KEYWORD: Confidence.HIGH,
    ClassificationStep.OS_CONSUMER_APN: Confidence.HIGH,
    ClassificationStep.PROPERTY_PROPAGATION: Confidence.MEDIUM,
    ClassificationStep.GSMA_LABEL: Confidence.MEDIUM,
    ClassificationStep.NO_EVIDENCE: Confidence.LOW,
}


@dataclass(frozen=True)
class Classification:
    """One device's classification with provenance."""

    label: ClassLabel
    step: ClassificationStep
    vertical: Optional[IoTVertical] = None
    matched_keyword: Optional[str] = None

    @property
    def confidence(self) -> Confidence:
        """Trust level implied by the producing step."""
        return _STEP_CONFIDENCE[self.step]


@dataclass(frozen=True)
class ClassifierConfig:
    """Toggles for the ablation study; the default runs the full method."""

    use_apn_keywords: bool = True
    use_property_propagation: bool = True
    use_gsma_rules: bool = True
    inventory: KeywordInventory = field(default_factory=default_keyword_inventory)


def rank_apns(summaries: Iterable[DeviceSummary]) -> List[Tuple[str, int]]:
    """Rank APN strings by the number of devices using them.

    This is the analyst's view the paper starts from ("ranking the APNs
    by number of devices using it, we identified 26 keywords").
    """
    counts: Counter[str] = Counter()
    for summary in summaries:
        for apn in summary.apns:
            counts[apn] += 1
    return counts.most_common()


class DeviceClassifier:
    """Runs the multi-step classification over device summaries.

    Per-APN intermediate results (keyword classification, consumer-APN
    checks) are memoized on the instance: both are pure functions of the
    APN string and the (immutable) config, and the APN vocabulary is far
    smaller than the device count, so cache hits return exactly what a
    fresh computation would.
    """

    def __init__(self, config: Optional[ClassifierConfig] = None) -> None:
        self.config = config or ClassifierConfig()
        self._apn_kind_cache: Dict[
            str, Tuple[APNKind, Optional[IoTVertical], Optional[str]]
        ] = {}
        self._consumer_apn_cache: Dict[str, bool] = {}

    # -- step 1 ----------------------------------------------------------------

    def _classify_apn_cached(
        self, apn: str
    ) -> Tuple[APNKind, Optional[IoTVertical], Optional[str]]:
        """Memoized :func:`classify_apn` against this config's inventory."""
        hit = self._apn_kind_cache.get(apn)
        if hit is None:
            hit = classify_apn(apn, self.config.inventory)
            self._apn_kind_cache[apn] = hit
        return hit

    def validated_apns(
        self, summaries: Mapping[str, DeviceSummary]
    ) -> Dict[str, Tuple[str, IoTVertical]]:
        """All observed APNs matching the keyword inventory.

        Returns ``apn -> (keyword, vertical)``.  In the paper this is the
        1,719-APN validated list distilled from the 26 keywords.
        """
        validated: Dict[str, Tuple[str, IoTVertical]] = {}
        for summary in summaries.values():
            for apn in summary.apns:
                if apn in validated:
                    continue
                kind, vertical, keyword = self._classify_apn_cached(apn)
                if kind is APNKind.M2M and vertical is not None and keyword:
                    validated[apn] = (keyword, vertical)
        return validated

    def _uses_consumer_apn(self, summary: DeviceSummary) -> bool:
        cache = self._consumer_apn_cache
        for apn in summary.apns:
            hit = cache.get(apn)
            if hit is None:
                network_id = parse_apn(apn).network_id
                hit = any(k in network_id for k in CONSUMER_KEYWORDS)
                cache[apn] = hit
            if hit:
                return True
        return False

    # -- the full pipeline ----------------------------------------------------

    def classify(
        self, summaries: Mapping[str, DeviceSummary]
    ) -> Dict[str, Classification]:
        """Classify every device; returns device_id -> Classification."""
        result: Dict[str, Classification] = {}
        m2m_property_keys: Set[Tuple[str, str]] = set()

        # Step 1: validated M2M APNs.  The APN set is iterated sorted so
        # the matched keyword for a multi-APN device never depends on
        # frozenset iteration order (which varies with PYTHONHASHSEED —
        # and hence across worker processes).
        if self.config.use_apn_keywords:
            validated = self.validated_apns(summaries)
            for device_id, summary in summaries.items():
                for apn in sorted(summary.apns):
                    hit = validated.get(apn)
                    if hit is None:
                        continue
                    keyword, vertical = hit
                    result[device_id] = Classification(
                        label=ClassLabel.M2M,
                        step=ClassificationStep.APN_KEYWORD,
                        vertical=vertical,
                        matched_keyword=keyword,
                    )
                    if summary.property_key is not None:
                        m2m_property_keys.add(summary.property_key)
                    break

        # Step 2: propagate by device properties.
        if self.config.use_property_propagation and m2m_property_keys:
            for device_id, summary in summaries.items():
                if device_id in result:
                    continue
                key = summary.property_key
                if key is not None and key in m2m_property_keys:
                    result[device_id] = Classification(
                        label=ClassLabel.M2M,
                        step=ClassificationStep.PROPERTY_PROPAGATION,
                    )

        # Steps 3-4: smart / feat / residue.
        for device_id, summary in summaries.items():
            if device_id in result:
                continue
            result[device_id] = self._classify_person_device(summary)
        return result

    def _classify_person_device(self, summary: DeviceSummary) -> Classification:
        """Steps 3-4 for one unclassified device."""
        model = summary.model
        consumer_apn = self._uses_consumer_apn(summary)

        if self.config.use_gsma_rules and model is not None:
            if model.is_smartphone_os and consumer_apn:
                return Classification(
                    ClassLabel.SMART, ClassificationStep.OS_CONSUMER_APN
                )
            if model.label is GSMALabel.FEATURE_PHONE or (
                consumer_apn and not model.is_smartphone_os
            ):
                return Classification(
                    ClassLabel.FEAT, ClassificationStep.OS_CONSUMER_APN
                )
            # Catalog-only fallbacks.
            if model.is_smartphone_os or model.label is GSMALabel.SMARTPHONE:
                return Classification(ClassLabel.SMART, ClassificationStep.GSMA_LABEL)
            if model.label in (GSMALabel.TABLET, GSMALabel.WEARABLE):
                # Person-adjacent devices without consumer APNs: treat as
                # smart, the closest person-device class.
                return Classification(ClassLabel.SMART, ClassificationStep.GSMA_LABEL)
            # Module/modem/unknown hardware with no validated APN: the
            # properties "suggest they are neither smartphones nor
            # feature phones, but we don't have APNs for them".
            return Classification(ClassLabel.M2M_MAYBE, ClassificationStep.GSMA_LABEL)

        # No catalog row at all (TAC unknown, or CDR-only device).
        if consumer_apn:
            return Classification(ClassLabel.FEAT, ClassificationStep.OS_CONSUMER_APN)
        return Classification(ClassLabel.M2M_MAYBE, ClassificationStep.NO_EVIDENCE)


def class_shares(classifications: Mapping[str, Classification]) -> Dict[ClassLabel, float]:
    """Fraction of devices per class — the 62/8/26/4% headline split."""
    if not classifications:
        return {label: 0.0 for label in ClassLabel}
    counts: Counter[ClassLabel] = Counter(c.label for c in classifications.values())
    total = len(classifications)
    return {label: counts.get(label, 0) / total for label in ClassLabel}
