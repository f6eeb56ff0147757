"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``simulate`` — run one app through one machine preset and print the
  result summary.
* ``run`` — run an (apps × presets) grid as a resumable campaign:
  progress is recorded in a grid manifest, so an interrupted or
  partially-failed campaign picks up where it stopped with
  ``repro run --resume``.
* ``figures`` — regenerate the paper's tables/figures (cached). The
  simulations of every requested figure run first as one grid batch
  labelled ``figures``, so an interrupted or partially-failed run also
  resumes with ``repro run --resume``.
* ``calibrate`` — print the workload-calibration report per app.
* ``apps`` — list the benchmark application profiles (Figure 6).
* ``presets`` — list the named machine configurations.
* ``inspect`` — per-event anatomy of one app's trace.
* ``stats`` — aggregate the harness's JSONL run logs (cache hit rates,
  per-app wall-clock and throughput, whether the parent (``serial``) or
  pool workers (``process``) served each app's simulated runs, retry
  counts, requeued tasks, quarantined corruptions and failed tasks);
  ``--json`` emits the machine-readable summary instead of the table.

App, preset and figure names are checked by the parser: an unknown name
exits with status 2 and the list of valid ones.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections.abc import Callable


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.sim import presets
    from repro.sim.simulator import simulate

    config = presets.by_name(args.config)
    result = simulate(args.app, config, scale=args.scale, seed=args.seed)
    r = result
    print(f"app={r.app} config={r.config}")
    print(f"  instructions  {r.instructions:>12,}")
    print(f"  cycles        {r.cycles:>12,.0f}")
    print(f"  IPC           {r.ipc:>12.3f}")
    print(f"  L1-I MPKI     {r.l1i_mpki:>12.1f}")
    print(f"  L1-D miss     {100 * r.l1d_miss_rate:>11.2f}%")
    print(f"  BP mispredict {100 * r.branch_misprediction_rate:>11.2f}%")
    print(f"  LLC misses    {r.llc_i_misses:>6,} I / {r.llc_d_misses:,} D")
    if r.esp.total_pre_instructions:
        print(f"  pre-executed  {r.esp.total_pre_instructions:>12,} "
              f"({100 * r.extra_instruction_fraction:.1f}% extra)")
        print(f"  hinted events {r.esp.hinted_events:>12,}")
    print(f"  energy        {r.energy.total:>12,.0f} units "
          f"(static {100 * r.energy.static / r.energy.total:.0f}%)")
    return 0


def _campaign(command: Callable[[argparse.Namespace], int]
              ) -> Callable[[argparse.Namespace], int]:
    """Wrap a command that runs grid batches: an interrupt exits 130 and
    failed grid tasks exit 1, each with the hint to continue with
    ``repro run --resume``, instead of a traceback."""
    @functools.wraps(command)
    def run(args: argparse.Namespace) -> int:
        from repro.sim.experiments import GridTaskError

        try:
            return command(args)
        except KeyboardInterrupt:
            print("\ninterrupted — continue with `repro run --resume`",
                  file=sys.stderr)
            return 130
        except GridTaskError as exc:
            print(f"{exc}\nretry the failed tasks with "
                  f"`repro run --resume`", file=sys.stderr)
            return 1

    return run


@_campaign
def _cmd_run(args: argparse.Namespace) -> int:
    from repro.sim import presets
    from repro.sim.experiments import ExperimentRunner
    from repro.workloads import APP_NAMES

    runner = ExperimentRunner(scale=args.scale, seed=args.seed,
                              jobs=args.jobs)
    if args.resume:
        resumed = runner.resume_grid()
        if resumed is None:
            print("no incomplete campaign to resume")
            return 0
        manifest, _results = resumed
        counts = manifest.counts()
        status = ", ".join(f"{name}={count}"
                           for name, count in sorted(counts.items()))
        label = f" ({manifest.label})" if manifest.label else ""
        print(f"resumed grid {manifest.grid_id}{label}: {status}")
        return 0 if not counts.get("failed") else 1
    apps = args.apps or list(APP_NAMES)
    configs = [presets.by_name(name)
               for name in (args.config or ["baseline", "esp_nl"])]
    grid = runner.grid(configs, apps, label=args.label)
    for config in configs:
        for app in apps:
            result = grid[config.name][app]
            print(f"{config.name:<28} {app:<10} "
                  f"IPC {result.ipc:>7.3f}  "
                  f"cycles {result.cycles:>14,.0f}")
    return 0


@_campaign
def _cmd_figures(args: argparse.Namespace) -> int:
    import json

    from repro.sim.experiments import ExperimentRunner
    from repro.sim.figures import ALL_FIGURES, plan

    runner = ExperimentRunner(jobs=args.jobs)
    names = args.names or list(ALL_FIGURES)
    runner.run_many(plan(names), label="figures")
    for name in names:
        figure = ALL_FIGURES[name](runner)
        if args.json:
            print(json.dumps(figure.to_dict(), indent=2))
        else:
            print(figure.format())
            print()
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.analysis.calibration import main as calibrate_main

    calibrate_main(args.apps or None)
    return 0


def _cmd_apps(args: argparse.Namespace) -> int:
    from repro.workloads import APPS, EventTrace

    for app in APPS.values():
        trace = EventTrace(app, scale=args.scale)
        total = sum(trace._target_len)
        print(f"{app.name:<10} events={len(trace):<5} "
              f"instructions~{total:<10,} {app.actions[:60]}")
    return 0


def _cmd_presets(args: argparse.Namespace) -> int:
    from repro.sim import presets

    for name in sorted(presets.preset_names()):
        config = presets.by_name(name)
        tags = []
        if config.esp.enabled:
            tags.append("esp" + (":naive" if config.esp.naive else "")
                        + (":ideal" if config.esp.ideal else ""))
        if config.runahead.enabled:
            tags.append("runahead" + (":d-only" if config.runahead.d_only
                                      else ""))
        if config.perfect.any:
            tags.append("perfect")
        print(f"{name:<22} {config.name:<28} {' '.join(tags)}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import generate_markdown

    print(generate_markdown(args.output_dir) if args.output_dir
          else generate_markdown(), end="")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    from repro.obs.runlog import default_log_dir, iter_records
    from repro.obs.stats import format_table, summarize
    from repro.sim.experiments import default_cache_dir

    log_dir = args.log_dir if args.log_dir is not None \
        else default_log_dir(default_cache_dir())
    summary = summarize(iter_records(log_dir))
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(f"run logs: {log_dir}")
        print(format_table(summary))
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.isa import summarize_stream
    from repro.workloads import EventTrace, get_app

    trace = EventTrace(get_app(args.app), scale=args.scale, seed=args.seed)
    print(f"{args.app}: {len(trace)} events, code image "
          f"{trace.image.code_bytes / 1024:.0f} KB, "
          f"{len(trace.image.functions)} functions")
    indices = [args.event] if args.event is not None else range(len(trace))
    for k in indices:
        event = trace.event(k)
        stats = summarize_stream(event.packed_true())
        print(f"  event {k:>3}: handler {event.handler_fid:<5} "
              f"{stats.instructions:>7,} instrs  "
              f"i-set {stats.i_footprint_bytes / 1024:6.1f} KB  "
              f"d-set {stats.d_footprint_bytes / 1024:6.1f} KB  "
              f"branches {stats.branches:>6,}"
              f"{'  [speculation diverges]' if event.diverged else ''}")
    return 0


def _one_of(names) -> Callable[[str], str]:
    """An argparse ``type`` that accepts only ``names``.

    Optional-length positionals use this instead of ``choices``: before
    Python 3.12, argparse checks their empty default list against
    ``choices`` and rejects an empty command line."""
    def check(value: str) -> str:
        if value not in names:
            raise argparse.ArgumentTypeError(
                f"invalid choice: {value!r} (choose from "
                f"{', '.join(repr(name) for name in names)})")
        return value

    return check


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for shell-completion tools)."""
    from repro.sim.figures import ALL_FIGURES
    from repro.sim.presets import preset_names
    from repro.workloads import APP_NAMES

    presets = sorted(preset_names())
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Event Sneak Peek (ISCA 2015) reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one app through one preset")
    p.add_argument("app", choices=APP_NAMES)
    p.add_argument("--config", default="esp_nl", choices=presets,
                   metavar="PRESET",
                   help="preset name (default: esp_nl; `repro presets` "
                        "lists them)")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "run", help="run an (apps × presets) grid as a resumable campaign")
    p.add_argument("apps", nargs="*", type=_one_of(APP_NAMES),
                   metavar="APP",
                   help="app names (default: all benchmark apps)")
    p.add_argument("--config", action="append", default=None,
                   choices=presets, metavar="PRESET",
                   help="preset name; repeatable "
                        "(default: baseline esp_nl)")
    p.add_argument("--scale", type=float, default=None,
                   help="workload scale (default: REPRO_SCALE or 1.0)")
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: REPRO_SEED or 0)")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: REPRO_JOBS or 1)")
    p.add_argument("--label", default=None,
                   help="label recorded in the grid manifest")
    p.add_argument("--resume", action="store_true",
                   help="resume the most recent incomplete campaign "
                        "instead of starting a new grid")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("figures", help="regenerate the paper's figures")
    p.add_argument("names", nargs="*", type=_one_of(list(ALL_FIGURES)),
                   metavar="FIGURE",
                   help="figure ids (default: all): "
                        + ", ".join(ALL_FIGURES))
    p.add_argument("--json", action="store_true",
                   help="emit JSON instead of text tables")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes for the simulation grid "
                        "(default: REPRO_JOBS or 1)")
    p.set_defaults(func=_cmd_figures)

    p = sub.add_parser("calibrate", help="workload calibration report")
    p.add_argument("apps", nargs="*", type=_one_of(APP_NAMES),
                   metavar="APP")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("apps", help="list benchmark applications")
    p.add_argument("--scale", type=float, default=1.0)
    p.set_defaults(func=_cmd_apps)

    p = sub.add_parser("presets", help="list machine configurations")
    p.set_defaults(func=_cmd_presets)

    p = sub.add_parser("report",
                       help="assemble EXPERIMENTS.md from recorded figures")
    p.add_argument("--output-dir", default=None)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("stats",
                       help="aggregate the harness's JSONL run logs")
    p.add_argument("--log-dir", default=None,
                   help="log directory (default: REPRO_LOG_DIR or "
                        "<cache-dir>/logs)")
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable summary JSON")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("inspect", help="per-event anatomy of a trace")
    p.add_argument("app", choices=APP_NAMES)
    p.add_argument("--event", type=int, default=None)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_inspect)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
