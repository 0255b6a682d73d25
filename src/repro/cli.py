"""Command-line interface: simulate, classify and report without code.

Examples::

    python -m repro simulate-m2m --devices 500 --out /tmp/m2m.jsonl
    python -m repro simulate-mno --devices 800 --out /tmp/mno
    python -m repro classify --devices 800 --seed 7
    python -m repro figure fig6 --devices 1000
    python -m repro figure all --devices 1000

All commands rebuild the deterministic world from ``--eco-seed``, so a
dataset written by ``simulate-mno`` can be re-analysed later against the
same sector/TAC catalogs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.activity import fig7_active_days
from repro.analysis.ascii_plots import render_bars, render_ecdf, render_heatmap
from repro.analysis.mobility import fig8_gyration
from repro.analysis.network_usage import fig9_network_usage
from repro.analysis.platform import fig2_device_distribution, fig3_dynamics
from repro.analysis.population import (
    fig5_home_countries,
    fig6_class_vs_label,
    population_shares,
)
from repro.analysis.smart_meters import fig11_smip_activity
from repro.analysis.traffic import fig10_traffic_volumes
from repro.analysis.verticals import fig12_verticals
from repro.core.classifier import ClassLabel
from repro.core.validation import validate_classification
from repro.configio import save_config
from repro.core.keywords import discovery_report
from repro.datasets.export import write_day_records, write_summaries
from repro.datasets.io import (
    write_radio_events,
    write_service_records,
    write_transactions,
)
from repro.ecosystem import EcosystemConfig, build_default_ecosystem
from repro.mno import MNOConfig, simulate_mno_dataset
from repro.pipeline import run_pipeline
from repro.platform_m2m import PlatformConfig, simulate_m2m_dataset


def _jobs_arg(value: str):
    """``--jobs`` parser: a positive int or the literal ``auto``."""
    if value == "auto":
        return value
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--jobs must be an integer or 'auto', got {value!r}"
        ) from None


def _build_eco(args: argparse.Namespace):
    return build_default_ecosystem(
        EcosystemConfig(uk_sites=args.uk_sites, seed=args.eco_seed)
    )


def _build_pipeline(args: argparse.Namespace):
    eco = _build_eco(args)
    dataset = simulate_mno_dataset(
        eco, MNOConfig(n_devices=args.devices, seed=args.seed)
    )
    return eco, dataset, run_pipeline(dataset, eco, n_workers=args.jobs)


# -- commands -------------------------------------------------------------------

def cmd_simulate_m2m(args: argparse.Namespace) -> int:
    """Generate an M2M-platform trace and optionally write it to JSONL."""
    eco = _build_eco(args)
    dataset = simulate_m2m_dataset(
        eco, PlatformConfig(n_devices=args.devices, seed=args.seed)
    )
    print(
        f"simulated {dataset.n_devices} devices, "
        f"{dataset.n_transactions} transactions over {dataset.window_days} days"
    )
    if args.out:
        count = write_transactions(args.out, dataset.transactions)
        print(f"wrote {count} transactions to {args.out}")
    return 0


def cmd_simulate_mno(args: argparse.Namespace) -> int:
    """Generate a visited-MNO dataset and optionally write it to a directory."""
    eco = _build_eco(args)
    dataset = simulate_mno_dataset(
        eco, MNOConfig(n_devices=args.devices, seed=args.seed)
    )
    for key, value in dataset.summary().items():
        print(f"{key}: {value}")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        n_radio = write_radio_events(out_dir / "radio_events.jsonl", dataset.radio_events)
        n_service = write_service_records(
            out_dir / "service_records.jsonl", dataset.service_records
        )
        print(f"wrote {n_radio} radio events and {n_service} service records to {out_dir}")
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    """Run the full pipeline and print class shares plus validation."""
    _, dataset, result = _build_pipeline(args)
    shares = population_shares(result)
    print("class shares:")
    for label, share in shares.class_shares.items():
        print(f"  {label.value:>10}: {share:6.1%}")
    print("\nvalidation against ground truth:")
    print(validate_classification(result.classifications, dataset.ground_truth).format())
    return 0


def _print_fig2(args, eco, dataset_m2m):
    result = fig2_device_distribution(dataset_m2m, eco.countries)
    for hmno, share in sorted(result.hmno_shares.items(), key=lambda kv: -kv[1]):
        print(f"{hmno}: {share:.1%} of devices, top visited {result.top_visited(hmno, 3)}")


def _print_fig3(args, eco, dataset_m2m):
    result = fig3_dynamics(dataset_m2m)
    print(f"records/device mean {result.records_all.mean:.0f} max {result.records_all.max:.0f}")
    print(f"roaming/native median ratio {result.roaming_to_native_median_ratio:.1f}")
    print(f"single-VMNO share {result.vmno_counts.fraction_at_most(1):.0%}")
    if getattr(args, "plot", False):
        print(render_ecdf(
            {"roaming": result.records_roaming, "native": result.records_native},
            log_x=True,
            title="Fig. 3-left: signaling records per device (ECDF)",
        ))


_PLATFORM_FIGURES = {"fig2": _print_fig2, "fig3": _print_fig3}


def _print_mno_figure(name: str, eco, result, plot: bool = False) -> None:
    if name == "fig5":
        fig = fig5_home_countries(result, eco.countries)
        print(f"top-3 share {fig.top3_overall_share:.0%}; top {fig.top_countries(5)}")
        if plot:
            print(render_bars(dict(fig.top_countries(10)),
                              title="Fig. 5: inbound-roamer home countries"))
    elif name == "fig6":
        fig = fig6_class_vs_label(result)
        print(f"I:H m2m share {fig.share_of_label('I:H', ClassLabel.M2M):.1%}; "
              f"m2m inbound share {fig.share_of_class(ClassLabel.M2M, 'I:H'):.1%}")
        if plot:
            matrix = {cls.value: row for cls, row in fig.by_class.items()}
            print(render_heatmap(matrix, title="Fig. 6: class x label (row-norm)"))
    elif name == "fig7":
        fig = fig7_active_days(result)
        print(f"inbound medians: m2m {fig.inbound[ClassLabel.M2M].median:.0f}d, "
              f"smart {fig.inbound[ClassLabel.SMART].median:.0f}d "
              f"(ratio {fig.median_ratio_inbound():.1f}x)")
    elif name == "fig8":
        fig = fig8_gyration(result)
        print(f"inbound m2m >1km: {fig.m2m_inbound_fraction_above(1.0):.0%}")
    elif name == "fig9":
        fig = fig9_network_usage(result)
        print(f"m2m 2G-only {fig.share('connectivity', ClassLabel.M2M, '2G-only'):.1%}; "
              f"m2m no-data {fig.share('data', ClassLabel.M2M, 'none'):.1%}")
    elif name == "fig10":
        fig = fig10_traffic_volumes(result)
        from repro.analysis.traffic import RoamingGroup
        print(f"signaling/day medians: smart-native "
              f"{fig.median('signaling_per_day', ClassLabel.SMART, RoamingGroup.NATIVE):.1f}, "
              f"m2m-inbound "
              f"{fig.median('signaling_per_day', ClassLabel.M2M, RoamingGroup.INBOUND):.1f}")
    elif name == "fig11":
        fig = fig11_smip_activity(result)
        print(f"native full-period {fig.native.full_period_fraction:.0%}; "
              f"roaming <=5d {fig.roaming.active_days.fraction_at_most(5):.0%}; "
              f"signaling ratio {fig.signaling_ratio:.1f}x")
    elif name == "fig12":
        fig = fig12_verticals(result)
        print(f"cars signaling {fig.cars.signaling_per_day.mean:.1f}/day vs "
              f"meters {fig.meters.signaling_per_day.mean:.1f}/day")
    else:
        raise KeyError(name)


MNO_FIGURES = ("fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12")


def cmd_figure(args: argparse.Namespace) -> int:
    """Print one figure's headline numbers (or all of them)."""
    names: List[str]
    if args.name == "all":
        names = list(_PLATFORM_FIGURES) + list(MNO_FIGURES)
    else:
        names = [args.name]

    eco = _build_eco(args)
    dataset_m2m = None
    result = None
    for name in names:
        print(f"-- {name} --")
        if name in _PLATFORM_FIGURES:
            if dataset_m2m is None:
                dataset_m2m = simulate_m2m_dataset(
                    eco, PlatformConfig(n_devices=args.devices, seed=args.seed)
                )
            _PLATFORM_FIGURES[name](args, eco, dataset_m2m)
        elif name in MNO_FIGURES:
            if result is None:
                dataset = simulate_mno_dataset(
                    eco, MNOConfig(n_devices=args.devices, seed=args.seed)
                )
                result = run_pipeline(dataset, eco, n_workers=args.jobs)
            _print_mno_figure(name, eco, result, plot=getattr(args, "plot", False))
        else:
            print(f"unknown figure {name!r}", file=sys.stderr)
            return 2
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    """Build the devices-catalog and export it as CSV."""
    _, _, result = _build_pipeline(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    n_days = write_day_records(out_dir / "catalog_days.csv", result.day_records)
    n_summaries = write_summaries(
        out_dir / "catalog_summaries.csv", result.summaries.values()
    )
    print(f"wrote {n_days} daily rows and {n_summaries} device summaries to {out_dir}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """Run the pipeline durably: checkpointed, resumable, health-reported."""
    if args.resume and not args.checkpoint_dir:
        print("--resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    eco = _build_eco(args)
    dataset = simulate_mno_dataset(
        eco, MNOConfig(n_devices=args.devices, seed=args.seed)
    )
    result = run_pipeline(
        dataset,
        eco,
        lenient=args.lenient,
        n_workers=args.jobs,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
    )
    print(
        f"classified {len(result.classifications)} devices "
        f"({len(result.summaries)} summarized, "
        f"{len(result.day_records)} daily rows)"
    )
    if result.health is not None:
        print(f"run health: {result.health.summary()}")
    if result.degradation is not None:
        deg = result.degradation
        print(
            f"degradation: {deg.n_devices_failed}/{deg.n_devices_total} devices "
            f"failed (coverage {deg.coverage:.1%})"
        )
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        n_days = write_day_records(out_dir / "catalog_days.csv", result.day_records)
        n_summaries = write_summaries(
            out_dir / "catalog_summaries.csv", result.summaries.values()
        )
        print(f"wrote {n_days} daily rows and {n_summaries} device summaries to {out_dir}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-lived catalog daemon (see docs/ROBUSTNESS.md)."""
    import asyncio

    from repro.service.config import ServiceConfig
    from repro.service.daemon import run_daemon

    eco = _build_eco(args)
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        queue_high_watermark=args.queue_high,
        queue_low_watermark=args.queue_low,
        snapshot_interval_s=args.snapshot_interval,
    )

    def announce(port: int) -> None:
        print(f"catalog daemon listening on {args.host}:{port}", flush=True)

    try:
        asyncio.run(
            run_daemon(
                eco,
                args.checkpoint_dir,
                config=config,
                resume=args.resume,
                seed=args.seed,
                ready_callback=announce,
            )
        )
    except KeyboardInterrupt:
        print("interrupted; daemon state is durable in the WAL", file=sys.stderr)
    return 0


def cmd_scrub(args: argparse.Namespace) -> int:
    """Verify (and optionally repair) a checkpoint store or WAL at rest."""
    from repro.runtime.checkpoint import CheckpointError
    from repro.runtime.scrub import recompute_from_dataset, scrub_store

    recompute = None
    if args.repair and args.recompute:
        eco = _build_eco(args)
        dataset = simulate_mno_dataset(
            eco, MNOConfig(n_devices=args.devices, seed=args.seed)
        )
        recompute = recompute_from_dataset(dataset)
    try:
        report = scrub_store(
            args.checkpoint_dir, repair=args.repair, recompute=recompute
        )
    except CheckpointError as exc:
        print(f"scrub failed: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(report.to_json())
    else:
        print(report.format())
    return 0 if report.healthy_after_scrub else 1


def cmd_keywords(args: argparse.Namespace) -> int:
    """Run the APN keyword-discovery workflow on a simulated population."""
    _, _, result = _build_pipeline(args)
    print(discovery_report(result.summaries.values(), min_devices=args.min_devices))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Generate the full Markdown reproduction report."""
    from repro.platform_m2m import PlatformConfig as _PC
    from repro.reporting import build_report

    eco, _, result = _build_pipeline(args)
    m2m = simulate_m2m_dataset(eco, _PC(n_devices=args.devices, seed=args.seed))
    text = build_report(m2m, result, eco)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote report to {args.out}")
    else:
        print(text)
    return 0


def cmd_save_config(args: argparse.Namespace) -> int:
    """Persist the run's configs for later reproducible runs."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_config(
        out_dir / "ecosystem.json",
        EcosystemConfig(uk_sites=args.uk_sites, seed=args.eco_seed),
    )
    save_config(
        out_dir / "platform.json",
        PlatformConfig(n_devices=args.devices, seed=args.seed),
    )
    save_config(out_dir / "mno.json", MNOConfig(n_devices=args.devices, seed=args.seed))
    print(f"wrote ecosystem.json, platform.json, mno.json to {out_dir}")
    return 0


# -- parser ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Where Things Roam (IMC 2020) reproduction toolkit",
    )
    parser.add_argument("--eco-seed", type=int, default=11, help="world seed")
    parser.add_argument("--uk-sites", type=int, default=80, help="UK radio sites")
    parser.add_argument(
        "--jobs",
        type=_jobs_arg,
        default="auto",
        help="worker processes for the pipeline's sharded stages "
        "(an integer, or 'auto' to pick from the machine and input size; "
        "1 = serial; output is identical at any value; a checkpointed run "
        "builds its units in process, and there this sets only a fresh "
        "checkpoint store's shards per day)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate-m2m", help="generate an M2M platform trace")
    p.add_argument("--devices", type=int, default=500)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", type=str, default=None, help="JSONL output path")
    p.set_defaults(func=cmd_simulate_m2m)

    p = sub.add_parser("simulate-mno", help="generate a visited-MNO dataset")
    p.add_argument("--devices", type=int, default=800)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", type=str, default=None, help="output directory")
    p.set_defaults(func=cmd_simulate_mno)

    p = sub.add_parser("classify", help="run the pipeline and score it")
    p.add_argument("--devices", type=int, default=800)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("figure", help="print a figure's headline numbers")
    p.add_argument(
        "name",
        choices=sorted(_PLATFORM_FIGURES) + list(MNO_FIGURES) + ["all"],
    )
    p.add_argument("--devices", type=int, default=800)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--plot", action="store_true", help="render ASCII plots")
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("export", help="build and export the devices-catalog CSVs")
    p.add_argument("--devices", type=int, default=800)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", type=str, required=True)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser(
        "run",
        help="run the pipeline with durable checkpoints (resumable after a crash)",
    )
    p.add_argument("--devices", type=int, default=800)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--lenient", action="store_true", help="quarantine bad devices")
    p.add_argument(
        "--checkpoint-dir",
        type=str,
        default=None,
        help="directory for the run manifest, journal and per-unit blocks",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="resume from an existing checkpoint directory (skips journaled units)",
    )
    p.add_argument("--out", type=str, default=None, help="CSV export directory")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "serve",
        help="run the catalog daemon (micro-batch ingest + point queries)",
    )
    p.add_argument("--host", type=str, default="127.0.0.1")
    p.add_argument("--port", type=int, default=0, help="0 = ephemeral")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument(
        "--checkpoint-dir",
        type=str,
        required=True,
        help="directory for the write-ahead batch log",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="replay an existing WAL (restart after a crash)",
    )
    p.add_argument("--queue-high", type=int, default=64, help="shed watermark")
    p.add_argument("--queue-low", type=int, default=16, help="recover watermark")
    p.add_argument(
        "--snapshot-interval", type=float, default=5.0,
        help="seconds between durable snapshot (journal fsync) cycles",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "scrub",
        help="verify a checkpoint store's unit CRCs end-to-end; classify "
        "and optionally repair at-rest damage",
    )
    p.add_argument(
        "--checkpoint-dir",
        type=str,
        required=True,
        help="store (or service WAL) directory to scrub",
    )
    p.add_argument(
        "--repair",
        action="store_true",
        help="heal damage: recompute units where possible, otherwise drop "
        "them from the journal so the next --resume re-executes them",
    )
    p.add_argument(
        "--recompute",
        action="store_true",
        help="with --repair: rebuild damaged units byte-identically from "
        "the simulated dataset (--devices/--seed must match the run)",
    )
    p.add_argument("--devices", type=int, default=800)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=cmd_scrub)

    p = sub.add_parser("keywords", help="run APN keyword discovery")
    p.add_argument("--devices", type=int, default=800)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--min-devices", type=int, default=5)
    p.set_defaults(func=cmd_keywords)

    p = sub.add_parser("report", help="generate the full Markdown reproduction report")
    p.add_argument("--devices", type=int, default=1000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("save-config", help="write reproducible config JSONs")
    p.add_argument("--devices", type=int, default=800)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", type=str, required=True)
    p.set_defaults(func=cmd_save_config)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
