"""Command-line interface: reproduce any paper experiment in one line.

Usage::

    python -m repro list                 # available experiments
    python -m repro table7               # CT-MoE-x system comparison
    python -m repro fig9                 # A2A algorithm sweep
    python -m repro plan                 # auto-tune the system config
    python -m repro faults               # straggler / flapping / retries
    python -m repro reshard              # kill -> recover -> scale-up
    python -m repro pipeline             # sync vs overlap, bit for bit
    python -m repro --cluster nvlink_dgx table7

Every command prints the exact text its bench saves under
``benchmarks/out/`` and takes no flag but ``--cluster``.  The table
commands (``table1``, ``table7``, ``table8``, ``table10``, ``fig9``)
run the one builder and renderer of :mod:`repro.systems.tables`, the
CLI on any ``--cluster`` preset and the bench on the paper testbed,
where it also asserts the paper's shape.  The study commands run the
studies of :mod:`repro.systems.planner`, :mod:`~repro.systems.faults`,
:mod:`~repro.systems.recovery` and :mod:`~repro.systems.pipeline`,
and exit 1 after one ``FAILED: <check>`` line per failing check.
``pipeline`` runs on the numerical substrate and ignores
``--cluster``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, Dict, List, NamedTuple, Optional

from .cluster import ClusterSpec, get_preset
from .cluster.presets import PRESETS
from .models import PAPER_MODELS
from .systems import (
    ALL_POLICIES,
    faults,
    pipeline,
    planner,
    recovery,
)
from .systems.tables import TABLES


def cmd_list(_args) -> int:
    """List experiments, policies, models and cluster presets."""
    print("experiments:", " ".join(c for c in COMMANDS if c != "list"))
    print("policies:   ", ", ".join(sorted(ALL_POLICIES)))
    print("models:     ", ", ".join(sorted(PAPER_MODELS)))
    print("clusters:   ", ", ".join(sorted(PRESETS)))
    return 0


def cmd_table(args) -> int:
    """Print one paper table exactly as its bench's sidecar renders it."""
    table = TABLES[args.command]
    print(table.render(table.build(get_preset(args.cluster))))
    return 0


class Study(NamedTuple):
    """One committed study: built on a cluster, rendered, checked."""

    help: str
    build: Callable[[ClusterSpec], Any]
    render: Callable[[Any, ClusterSpec], str]
    failed_checks: Callable[[Any], List[str]]


#: The study each ``repro <name>`` prints through :func:`cmd_study`.
STUDIES: Dict[str, Study] = {
    "plan": Study(
        "auto-tuning planner study: calibrate, search, validate",
        planner.plan,
        lambda report, spec: "\n".join(report.summary_lines()),
        planner.failed_checks,
    ),
    "faults": Study(
        "fault study: straggler, flapping link, transient retries",
        faults.run_faults_study,
        lambda report, spec: faults.render(report),
        faults.failed_checks,
    ),
    "reshard": Study(
        "elastic re-sharding study: kill -> recover -> scale-up",
        recovery.run_recovery_study,
        recovery.render,
        recovery.failed_checks,
    ),
    "pipeline": Study(
        "sync vs overlap chunked expert-parallel forward per scheduler "
        "and r (ignores --cluster)",
        lambda spec: pipeline.run_pipeline_study(),
        lambda report, spec: pipeline.render(report),
        pipeline.failed_checks,
    ),
}


def cmd_study(args) -> int:
    """Print one study; exit 1, naming each failed check, unless all hold."""
    study = STUDIES[args.command]
    spec = get_preset(args.cluster)
    report = study.build(spec)
    print(study.render(report, spec))
    failed = study.failed_checks(report)
    for name in failed:
        print(f"FAILED: {name}")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    """The repro argument parser (one subcommand per experiment)."""
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--cluster", default="paper_testbed", choices=sorted(PRESETS),
        help="cluster preset (default: paper_testbed)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments/policies/models")
    for name, table in TABLES.items():
        sub.add_parser(name, help=table.title)

    for name, study in STUDIES.items():
        sub.add_parser(name, help=study.help)
    return parser


COMMANDS = {
    "list": cmd_list,
    **{name: cmd_table for name in TABLES},
    **{name: cmd_study for name in STUDIES},
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
