"""PERF — throughput of the core pipeline stages.

Not a paper figure: these benches track the cost of the devices-catalog
build, the classification pass and the sharded pipeline fan-out — the
stages an operator would run daily at 39.6M-device scale.
"""


import pytest

from repro.columnar import from_record_streams
from repro.core.catalog import CatalogBuilder
from repro.core.classifier import DeviceClassifier
from repro.core.roaming import RoamingLabeler
from repro.pipeline import run_pipeline


def test_catalog_build_throughput(benchmark, eco, mno_dataset):
    labeler = RoamingLabeler(eco.operators, eco.uk_mno)
    builder = CatalogBuilder(
        mno_dataset.tac_db, mno_dataset.sector_catalog, labeler,
        compute_mobility=False,
    )
    events, records = from_record_streams(
        mno_dataset.radio_events, mno_dataset.service_records
    )
    day_records, summaries = benchmark(builder.build_from_columns, events, records)
    assert len(summaries) == mno_dataset.n_devices


def test_classification_throughput(benchmark, pipeline):
    classifier = DeviceClassifier()
    result = benchmark(classifier.classify, pipeline.summaries)
    assert len(result) == len(pipeline.summaries)


def test_roaming_labeling_throughput(benchmark, eco, mno_dataset):
    """The labeler's hot path is now the memoized one; the bench times it
    and checks a cache hit never changes a label."""
    labeler = RoamingLabeler(eco.operators, eco.uk_mno)
    pairs = [
        (record.sim_plmn, record.visited_plmn)
        for record in mno_dataset.service_records[:20000]
    ]
    uncached = RoamingLabeler(eco.operators, eco.uk_mno, cache=False)
    expected = [uncached.label(sim, visited) for sim, visited in pairs]

    def label_all():
        return [labeler.label(sim, visited) for sim, visited in pairs]

    labels = benchmark(label_all)
    assert labels == expected
    stats = labeler.cache_stats()
    assert stats.hits > 0
    assert stats.size <= len({pair for pair in pairs})


@pytest.mark.parametrize("n_workers", [1, 2, 4])
def test_parallel_throughput(benchmark, eco, mno_dataset, n_workers):
    """Worker sweep over the sharded pipeline (catalog + classify).

    One round per worker count keeps the sweep bounded; the real
    speedup-vs-baseline accounting lives in ``tools/bench_compare.py``.
    """
    result = benchmark.pedantic(
        run_pipeline,
        args=(mno_dataset, eco),
        kwargs={"n_workers": n_workers, "compute_mobility": False},
        rounds=1,
        iterations=1,
    )
    assert len(result.summaries) == mno_dataset.n_devices
