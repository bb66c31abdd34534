"""Command-line interface of the reproduction.

Three subcommands:

``freesketch list-experiments``
    Show the identifiers of every reproducible table/figure/ablation.

``freesketch run-experiment <id> [--preset quick|default|full] [--csv out.csv]``
    Run one experiment and print its result table (optionally also as CSV).

``freesketch generate-dataset <name> <path> [--scale S]``
    Materialise a dataset stand-in to an edge-list file (so the same stream
    can be replayed by external tools).

``freesketch estimate <edge-file> [--method FreeRS] [--memory-bits N] [--top K]
[--engine {scalar,batch}] [--shards K] [--chunk-size N]``
    Run one estimator over an edge-list file and print the top-K users by
    estimated cardinality — a minimal "use it on your own data" entry point.

``freesketch run <edge-file> [--method FreeRS] [--memory-bits N] [--workers W]
[--shards K] [--chunk-size N] [--top K] [--json out.json]``
    Ingest an edge-list file through the parallel runtime
    (:mod:`repro.runtime`): users are partitioned across ``--workers``
    processes, each replaying the vectorised batch path over its shard set,
    and the per-worker sketches are merged into one estimator.  For a fixed
    ``--shards K`` the estimates are **bit-identical** for every worker
    count (``--workers 4`` reproduces the single-process ``--workers 1
    --shards 4`` run exactly); ``--json`` writes the full-precision estimate
    map so two runs can be diffed.

``freesketch monitor <edge-file> [--method ...] [--epoch-pairs N | --epoch-span S]
[--window W] [--delta D | --threshold T] [--out feed.jsonl]
[--snapshot-dir DIR] [--snapshot-every N] [--resume] [--rate R]``
    Replay a dataset through the continuous monitoring subsystem
    (:mod:`repro.monitor`): epoch-rotating windowed sketches, sliding-window
    top-k spreader tracking, hysteresis alerts, and periodic state
    snapshots.  Emits a JSONL feed of window estimates and alert events to
    stdout and (append-mode) to ``--out``.  ``--resume`` restores the latest
    snapshot from ``--snapshot-dir`` and fast-forwards the stream past the
    pairs it already saw — the kill/restore story for long replays.

    ``--engine`` selects the update path: ``batch`` (default) replays the
    stream in vectorised chunks through the engine layer, ``scalar`` feeds
    pairs one by one (the paper's streaming model).  Both produce
    bit-identical estimates; batch is simply faster.  ``--chunk-size``
    overrides the batch chunk length (default 8192 pairs).

    ``--shards K`` partitions users across K independent sub-sketches
    (:class:`repro.engine.ShardedEstimator`), each with 1/K of the memory
    budget — the scale-out configuration for multi-worker replay.

``freesketch serve [edge-file] [--port P] [--refresh-every N] [monitor flags]
[--snapshot-dir DIR] [--snapshot-every N] [--resume] [--rate R]
[--metrics-port P]``
    Serve live spread-estimate queries (``spread`` / ``batch_spread`` /
    ``topk`` / ``sliding`` / ``stats`` / ``metrics``) over a
    newline-delimited-JSON TCP protocol (:mod:`repro.service`) while a
    background thread ingests the edge-list file through a
    :class:`~repro.monitor.spreader.SpreaderMonitor`.
    Queries answer from a versioned read snapshot refreshed every
    ``--refresh-every`` batches, so concurrent readers never block ingest.
    With ``--snapshot-dir --resume`` the monitor is restored from the latest
    checkpoint first; without an edge file the restored state is served
    statically.  Readiness (and the bound port, with the default ``--port
    0``) is announced as a ``{"type": "serving", ...}`` JSONL record on
    stdout.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import DESCRIPTIONS, list_experiments, run_experiment
from repro.registry import METHOD_ORDER, build
from repro.streams.datasets import DATASETS, dataset_names
from repro.streams.io import read_edge_file, write_edge_file


def _config_from_preset(preset: str) -> ExperimentConfig:
    presets = {
        "quick": ExperimentConfig.quick,
        "default": ExperimentConfig,
        "full": ExperimentConfig.full,
    }
    try:
        return presets[preset]()
    except KeyError:
        raise SystemExit(f"unknown preset {preset!r}; choose from {sorted(presets)}") from None


def _cmd_list_experiments(_: argparse.Namespace) -> int:
    for name in list_experiments():
        print(f"{name:28s} {DESCRIPTIONS.get(name, '')}")
    return 0


def _cmd_run_experiment(args: argparse.Namespace) -> int:
    config = _config_from_preset(args.preset)
    table = run_experiment(args.experiment, config)
    print(table.render())
    if args.csv:
        table.to_csv(args.csv)
        print(f"\nwrote {args.csv}")
    return 0


def _cmd_generate_dataset(args: argparse.Namespace) -> int:
    if args.dataset not in DATASETS:
        raise SystemExit(f"unknown dataset {args.dataset!r}; choose from {dataset_names()}")
    stream = DATASETS[args.dataset].load(scale=args.scale)
    count = write_edge_file(
        args.path,
        stream,
        header=f"synthetic stand-in for {args.dataset} (scale={args.scale})",
    )
    print(f"wrote {count} edges to {args.path}")
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    if args.chunk_size is not None and args.chunk_size <= 0:
        raise SystemExit("--chunk-size must be positive")
    stream = read_edge_file(args.path)
    config = ExperimentConfig(memory_bits=args.memory_bits)
    try:
        estimator = build(
            args.method,
            config,
            expected_users=max(1, stream.user_count),
            shards=args.shards,
        )
    except ValueError as error:
        raise SystemExit(str(error)) from None
    if args.engine == "batch":
        estimator.process(stream, chunk_size=args.chunk_size)
    else:
        for user, item in stream:
            estimator.update(user, item)
    ranked = sorted(estimator.estimates().items(), key=lambda pair: pair[1], reverse=True)
    print(
        f"method={args.method} engine={args.engine} shards={args.shards} "
        f"memory_bits={args.memory_bits} users={stream.user_count}"
    )
    print("user\testimated_cardinality")
    for user, estimate in ranked[: args.top]:
        print(f"{user}\t{estimate:.1f}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    import json

    from repro.runtime import parallel_ingest

    if args.chunk_size is not None and args.chunk_size <= 0:
        raise SystemExit("--chunk-size must be positive")
    stream = read_edge_file(args.path)
    config = ExperimentConfig(memory_bits=args.memory_bits, seed=args.seed)
    try:
        report = parallel_ingest(
            stream,
            method=args.method,
            config=config,
            expected_users=max(1, stream.user_count),
            workers=args.workers,
            shards=args.shards,
            chunk_size=args.chunk_size,
        )
    except ValueError as error:
        raise SystemExit(str(error)) from None
    estimates = report.estimates()
    if args.json:
        # Full-precision payload keyed by stringified user id, sorted, so two
        # runs of equal (config, shards) diff clean regardless of --workers.
        payload = {str(user): estimate for user, estimate in estimates.items()}
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(
        f"method={args.method} workers={report.workers} shards={report.shards} "
        f"memory_bits={args.memory_bits} pairs={report.pairs} "
        f"seconds={report.seconds:.3f} pairs_per_sec={report.pairs_per_second:.0f}"
    )
    ranked = sorted(estimates.items(), key=lambda pair: pair[1], reverse=True)
    print("user\testimated_cardinality")
    for user, estimate in ranked[: args.top]:
        print(f"{user}\t{estimate:.1f}")
    return 0


def _monitor_spec_from_args(args: argparse.Namespace, stream) -> object:
    """Build the MonitorSpec shared by the ``monitor`` and ``serve`` commands.

    One home for the epoch-mode and threshold validation and the delta
    default, so the two commands cannot drift apart.
    """
    from repro.monitor import MonitorSpec

    if (args.epoch_pairs is None) == (args.epoch_span is None):
        raise SystemExit("set exactly one of --epoch-pairs or --epoch-span")
    if args.delta is not None and args.threshold is not None:
        raise SystemExit("set at most one of --delta or --threshold")
    delta = args.delta
    if delta is None and args.threshold is None:
        delta = 5e-3
    return MonitorSpec(
        method=args.method,
        memory_bits=args.memory_bits,
        seed=args.seed,
        expected_users=max(1, stream.user_count),
        shards=args.shards,
        epoch_pairs=args.epoch_pairs,
        epoch_span=args.epoch_span,
        window_epochs=args.window,
        top_k=args.top_k,
        delta=delta,
        threshold=args.threshold,
        hysteresis=args.hysteresis,
    )


def _restore_monitor_for_resume(args: argparse.Namespace, snapshot_store):
    """Shared ``--resume`` path: restore the latest checkpoint or exit clearly."""
    from repro.monitor import SnapshotError

    if snapshot_store is None:
        raise SystemExit("--resume requires --snapshot-dir")
    try:
        monitor = snapshot_store.restore()
    except SnapshotError as error:
        # A missing or truncated checkpoint must not start a silent fresh
        # replay (double-counting the stream) or dump a JSON-layer
        # traceback; name the file and the way out, exit non-zero.
        raise SystemExit(f"--resume failed: {error}") from None
    print(
        f"# resumed from {snapshot_store.latest()} at pair "
        f"{monitor.window.pairs_ingested}",
        flush=True,
    )
    print(
        "# note: monitor configuration comes from the snapshot's spec; "
        "method/window/threshold flags on this command line are ignored",
        flush=True,
    )
    return monitor


def _cmd_monitor(args: argparse.Namespace) -> int:
    import json

    from repro.monitor import SnapshotStore, replay_feed

    stream = read_edge_file(args.path)
    timestamps = stream.timestamps() if stream.has_timestamps else None
    snapshot_store = SnapshotStore(args.snapshot_dir) if args.snapshot_dir else None
    if args.snapshot_every and snapshot_store is None:
        raise SystemExit("--snapshot-every requires --snapshot-dir")

    monitor = None
    skip_pairs = 0
    if args.resume:
        monitor = _restore_monitor_for_resume(args, snapshot_store)
        skip_pairs = monitor.window.pairs_ingested
    if monitor is None:
        monitor = _monitor_spec_from_args(args, stream).build()

    out_handle = open(args.out, "a", encoding="utf-8") if args.out else None
    stdout_open = True
    try:
        for record in replay_feed(
            monitor,
            stream.pairs(),
            timestamps=timestamps,
            batch_size=args.batch_size,
            rate=args.rate,
            snapshot_store=snapshot_store,
            snapshot_every=args.snapshot_every,
            skip_pairs=skip_pairs,
        ):
            line = json.dumps(record)
            if stdout_open:
                try:
                    print(line, flush=True)
                except BrokenPipeError:
                    # Feed piped into head/grep that stopped reading: keep the
                    # replay (and the --out file / snapshots) going silently.
                    # Point stdout at devnull so the interpreter's exit-time
                    # flush does not trip over the closed pipe again.
                    stdout_open = False
                    import os

                    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if out_handle is not None:
                out_handle.write(line + "\n")
    finally:
        if out_handle is not None:
            out_handle.close()
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # Same parsed namespace, same runner as ``python -m repro.lint`` — the
    # flag sets cannot drift because both come from add_lint_arguments().
    from repro.lint import run_from_args

    return run_from_args(args)


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.monitor import SnapshotStore
    from repro.service import serve_monitor

    if args.path is None and not args.resume:
        raise SystemExit(
            "serve needs a stream to ingest (an edge-list file) and/or a "
            "checkpoint to restore (--snapshot-dir with --resume)"
        )
    if args.refresh_every <= 0:
        raise SystemExit("--refresh-every must be positive")
    snapshot_store = SnapshotStore(args.snapshot_dir) if args.snapshot_dir else None
    if args.snapshot_every and snapshot_store is None:
        raise SystemExit("--snapshot-every requires --snapshot-dir")

    monitor = None
    if args.resume:
        monitor = _restore_monitor_for_resume(args, snapshot_store)

    pairs = None
    timestamps = None
    if args.path is not None:
        stream = read_edge_file(args.path)
        pairs = stream.pairs()
        timestamps = stream.timestamps() if stream.has_timestamps else None
        if monitor is None:
            monitor = _monitor_spec_from_args(args, stream).build()

    def announce(record):
        print(json.dumps(record), flush=True)

    try:
        asyncio.run(
            serve_monitor(
                monitor,
                pairs=pairs,
                timestamps=timestamps,
                host=args.host,
                port=args.port,
                batch_size=args.batch_size,
                rate=args.rate,
                refresh_every=args.refresh_every,
                snapshot_store=snapshot_store,
                snapshot_every=args.snapshot_every,
                announce=announce,
                metrics_port=args.metrics_port,
            )
        )
    except KeyboardInterrupt:
        print("# interrupted; server closed", flush=True)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for the CLI tests)."""
    parser = argparse.ArgumentParser(
        prog="freesketch",
        description="Reproduction of FreeBS/FreeRS (Wang et al., ICDE 2019).",
    )
    parser.add_argument(
        "--log-level",
        default="warning",
        choices=["debug", "info", "warning", "error"],
        help="runtime log verbosity on stderr (default warning)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit runtime logs as one JSON object per line instead of "
        "human-readable key=value lines",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list-experiments", help="list reproducible artefacts")
    list_parser.set_defaults(handler=_cmd_list_experiments)

    run_parser = subparsers.add_parser("run-experiment", help="run one experiment")
    run_parser.add_argument("experiment", choices=list_experiments())
    run_parser.add_argument("--preset", default="quick", choices=["quick", "default", "full"])
    run_parser.add_argument("--csv", default=None, help="also write the table to this CSV file")
    run_parser.set_defaults(handler=_cmd_run_experiment)

    generate_parser = subparsers.add_parser(
        "generate-dataset", help="materialise a dataset stand-in to an edge-list file"
    )
    generate_parser.add_argument("dataset", choices=dataset_names())
    generate_parser.add_argument("path")
    generate_parser.add_argument("--scale", type=float, default=0.1)
    generate_parser.set_defaults(handler=_cmd_generate_dataset)

    estimate_parser = subparsers.add_parser(
        "estimate", help="estimate per-user cardinalities of an edge-list file"
    )
    estimate_parser.add_argument("path")
    estimate_parser.add_argument("--method", default="FreeRS", choices=METHOD_ORDER)
    estimate_parser.add_argument("--memory-bits", type=int, default=1 << 20)
    estimate_parser.add_argument("--top", type=int, default=10)
    estimate_parser.add_argument(
        "--engine",
        default="batch",
        choices=["scalar", "batch"],
        help="update path: vectorised chunks (batch, default) or pair-by-pair "
        "(scalar); estimates are bit-identical either way",
    )
    estimate_parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="partition users across this many independent sub-sketches "
        "(total memory budget is split evenly)",
    )
    estimate_parser.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="pairs per vectorised chunk for --engine batch (default 8192)",
    )
    estimate_parser.set_defaults(handler=_cmd_estimate)

    run_ingest_parser = subparsers.add_parser(
        "run",
        help="ingest an edge-list file with the parallel runtime "
        "(multiprocess shard workers; bit-identical to a single-process run)",
    )
    run_ingest_parser.add_argument("path")
    run_ingest_parser.add_argument("--method", default="FreeRS", choices=METHOD_ORDER)
    run_ingest_parser.add_argument("--memory-bits", type=int, default=1 << 20)
    run_ingest_parser.add_argument("--seed", type=int, default=7)
    run_ingest_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="ingest processes; users are partitioned across the workers' "
        "shard sets and the per-worker sketches are merged at the end",
    )
    run_ingest_parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="shard count of the underlying sharded estimator "
        "(default: the worker count; must be >= --workers).  Runs with the "
        "same shard count produce bit-identical estimates for any --workers",
    )
    run_ingest_parser.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="pairs per encoded chunk streamed to the workers (default 8192)",
    )
    run_ingest_parser.add_argument("--top", type=int, default=10)
    run_ingest_parser.add_argument(
        "--json",
        default=None,
        help="also write the full-precision {user: estimate} map to this file",
    )
    run_ingest_parser.set_defaults(handler=_cmd_run)

    monitor_parser = subparsers.add_parser(
        "monitor",
        help="replay an edge-list file through the continuous monitoring subsystem",
    )
    monitor_parser.add_argument("path")
    _add_monitor_flags(monitor_parser)
    monitor_parser.add_argument(
        "--rate",
        type=float,
        default=None,
        help="throttle the replay to roughly this many pairs per second",
    )
    monitor_parser.add_argument(
        "--out", default=None, help="also append the JSONL feed to this file"
    )
    monitor_parser.set_defaults(handler=_cmd_monitor)

    serve_parser = subparsers.add_parser(
        "serve",
        help="serve live spread-estimate queries over newline-delimited-JSON TCP "
        "while ingesting a stream in the background",
    )
    serve_parser.add_argument(
        "path",
        nargs="?",
        default=None,
        help="edge-list file to ingest while serving; omit to serve a restored "
        "checkpoint statically (requires --snapshot-dir --resume)",
    )
    _add_monitor_flags(serve_parser)
    serve_parser.add_argument(
        "--rate",
        type=float,
        default=None,
        help="throttle background ingest to roughly this many pairs per second",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port to bind (default 0: pick a free port, announced on stdout)",
    )
    serve_parser.add_argument(
        "--refresh-every",
        type=int,
        default=1,
        help="re-export the read snapshot every N ingest batches (default 1; "
        "larger values trade answer freshness for ingest throughput)",
    )
    serve_parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        help="also serve the Prometheus text exposition of the metrics "
        "registry on this HTTP port (0: pick a free port; the bound port is "
        "announced in the serving record as metrics_port)",
    )
    serve_parser.set_defaults(handler=_cmd_serve)

    lint_parser = subparsers.add_parser(
        "lint",
        help="run the repository's AST- and flow-based invariant checks (repro.lint)",
    )
    from repro.lint import add_lint_arguments

    add_lint_arguments(lint_parser)
    lint_parser.set_defaults(handler=_cmd_lint)

    return parser


def _add_monitor_flags(parser: argparse.ArgumentParser) -> None:
    """Spec/replay/snapshot flags shared by ``monitor`` and ``serve``."""
    parser.add_argument("--method", default="FreeRS", choices=METHOD_ORDER)
    parser.add_argument("--memory-bits", type=int, default=1 << 18)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--shards", type=int, default=1, help="user-partitioned shards per epoch"
    )
    parser.add_argument(
        "--epoch-pairs",
        type=int,
        default=None,
        help="close an epoch after this many pairs (event-count rotation)",
    )
    parser.add_argument(
        "--epoch-span",
        type=float,
        default=None,
        help="close an epoch after this span of the arrival clock "
        "(timestamp rotation; files without a timestamp column use the event index)",
    )
    parser.add_argument(
        "--window", type=int, default=8, help="epochs retained for sliding-window queries"
    )
    parser.add_argument("--top-k", type=int, default=10)
    parser.add_argument(
        "--delta",
        type=float,
        default=None,
        help="relative spreader threshold on the window total "
        "(default 5e-3 when --threshold is not given)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="absolute spreader threshold (mutually exclusive with --delta)",
    )
    parser.add_argument(
        "--hysteresis",
        type=float,
        default=0.2,
        help="exit threshold sits this fraction below the enter threshold",
    )
    parser.add_argument("--batch-size", type=int, default=2048)
    parser.add_argument(
        "--snapshot-dir", default=None, help="directory for monitor state snapshots"
    )
    parser.add_argument(
        "--snapshot-every",
        type=int,
        default=0,
        help="checkpoint every N batches (requires --snapshot-dir)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="restore the latest snapshot from --snapshot-dir and continue",
    )


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    from repro.obs import configure_logging

    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(level=args.log_level, json_mode=args.log_json)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
