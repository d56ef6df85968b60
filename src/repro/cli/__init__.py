"""Command-line interface: ``python -m repro <command>``.

Each command's parser sits beside its handler, grouped by subsystem:
:mod:`repro.cli.run` aligns (``align``, ``trace``, ``generate``,
``quality``), :mod:`repro.cli.stages` inspects the pipeline's parts
(``engines``, ``distances``, ``trees``, ``rank``), :mod:`repro.cli.plan`
sizes a run from the calibrated performance model, and
:mod:`repro.cli.serve` runs the serving tier (``serve``, ``loadtest``);
``repro <command> --help`` documents each flag.  The options several
commands share are declared once below: ``--json [FILE]``, ``--backend``
and the gateway stack reach a command through argparse's ``parents=``,
the guide-tree stage flags through one table.  Bad user input ends as
``error: ...`` with exit status 2 at one boundary, :func:`main`; a
failure inside an engine run keeps its traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import List, Optional

__all__ = ["main", "build_parser"]


def _emit_json(payload: object, dest: str, dash_stream=None) -> None:
    """Route a ``--json [FILE]`` payload: ``-`` to a stream, else FILE."""
    import json

    text = json.dumps(payload, indent=2, sort_keys=True)
    if dest == "-":
        print(text, file=dash_stream or sys.stdout)
    else:
        with open(dest, "w", encoding="ascii") as fh:
            fh.write(text + "\n")


#: The guide-tree pipeline's flag group, declared once: flag ->
#: (stage, config field it sets, argparse keywords).  Sub-commands pick
#: the flags they carry with :func:`_add_stage_flags`;
#: :func:`_stage_specs` turns the parsed flags into the two configs.
_STAGE_FLAGS = {
    "--distance": ("distance", "estimator", dict(
        metavar="NAME",
        help="distance estimator for the guide-tree stage (see `repro "
        "engines`): 'ktuple' (fast, alignment-free), 'kmer-fraction' "
        "or 'full-dp' (accurate, O(L^2) per pair). For "
        "sample-align-d it configures the per-bucket local aligners; "
        "for serve/loadtest it is the default folded (pre-hash) into "
        "guide-tree engine requests that don't choose one.",
    )),
    "--distance-backend": ("distance", "backend", dict(
        metavar="NAME",
        help="execution backend for the all-pairs distance stage "
        "('threads' or 'pool'; output is byte-identical "
        "to the serial stage). Unset: 'threads' over the usable cores "
        "for a large compiled full-dp stage, else serial. Guide-tree "
        "engines only.",
    )),
    "--distance-out": ("distance", "out", dict(
        choices=["memory", "condensed", "memmap"],
        help="distance-matrix placement: 'memory' (dense), 'condensed' "
        "(flat upper triangle, half the RAM; the default) or 'memmap' "
        "(disk-backed tile store -- O(tile) resident memory at genome "
        "scale). Byte-identical values. Guide-tree engines only.",
    )),
    "--distance-store-dir": ("distance", "store_dir", dict(
        metavar="DIR",
        help="tile-store directory for --distance-out memmap (default: "
        "a fresh temporary store, removed after the stage; a fixed DIR "
        "makes the distance stage resumable across runs)",
    )),
    "--tree": ("tree", "builder", dict(
        metavar="NAME",
        help="guide-tree builder (see `repro engines`): 'upgma', 'wpgma', "
        "'nj', or 'single-linkage'. For sample-align-d it configures "
        "the per-bucket local aligners; for serve/loadtest it is the "
        "default folded (pre-hash) into guide-tree engine requests that "
        "don't choose one.",
    )),
}


def _add_stage_flags(parser: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags or _STAGE_FLAGS:
        parser.add_argument(flag, default=None, **_STAGE_FLAGS[flag][2])


def _stage_specs(args: argparse.Namespace) -> dict:
    """The ``--distance*`` / ``--tree*`` flags as ``{stage: config
    dict}``, validated through :class:`~repro.distance.DistanceConfig` /
    :class:`~repro.tree.TreeConfig` (``ValueError`` on a bad name).  A
    stage none of whose flags was given (or that the sub-command does
    not carry) is left out."""
    from repro.tree import STAGE_CONFIGS

    fields = {stage: {} for stage in STAGE_CONFIGS}
    for flag, (stage, name, _) in _STAGE_FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is not None:
            fields[stage][name] = value
    return {
        stage: config_cls(**fields[stage]).to_dict()
        for stage, config_cls in STAGE_CONFIGS.items()
        if fields[stage]
    }


def _print_stage_table(nodes, indent: int = 0, file=None) -> None:
    """Render a :func:`repro.obs.tracing.stage_breakdown` tree."""
    for node in nodes:
        pad = "  " * indent
        print(
            f"{pad}{node['stage']:<{max(30 - len(pad), 1)}} "
            f"x{node['count']:<5} {node['total_s'] * 1000:9.2f}ms",
            file=file or sys.stdout,
        )
        _print_stage_table(node.get("children", []), indent + 1, file=file)


# -- the shared options, each declared once --------------------------------

JSON = argparse.ArgumentParser(add_help=False)
JSON.add_argument(
    "--json", nargs="?", const="-", default=None, metavar="FILE",
    help="emit the command's report as JSON to FILE; without FILE to "
    "stdout (align: stderr, as its stdout may carry the FASTA)",
)

BACKEND = argparse.ArgumentParser(add_help=False)
BACKEND.add_argument(
    "--backend", default=None, metavar="NAME",
    help="execution backend: 'threads' (the virtual cluster; ranks run "
    "one at a time, so wall time is about the serial work) or 'pool' "
    "(persistent warm worker processes on real cores, payloads pickled "
    "onto queues; more ranks than workers share them, a block of ranks "
    "per worker). Unset, Sample-Align-D goes to a pool of every usable "
    "core when its work, N x mean length^2, reaches "
    "repro.core.driver.AUTO_POOL_MIN_CELLS and two or more cores are "
    "usable, else to 'threads' (the distance stage picks serial or "
    "'threads' by its own rule). Output is "
    "byte-identical across backends. It runs align's Sample-Align-D "
    "ranks, distances' tiled scheduler, plan's measured probe, and "
    "serve/loadtest's distributed requests that choose none",
)

#: serve / loadtest: the gateway, its service and its defaults (serve
#: adds the distance stage's placement flags).
STACK = argparse.ArgumentParser(add_help=False, parents=[BACKEND])
_add_stage_flags(STACK, "--distance", "--distance-backend", "--tree")
STACK.add_argument(
    "--workers", type=int, default=4,
    help="requests in flight at once (gateway worker threads, each "
    "running its request); in-process computes still run one at a time "
    "per process, so this buys overlap of store I/O and "
    "--backend pool runs, not parallel alignment",
)
STACK.add_argument(
    "--queue-size", type=int, default=256, help="admission-queue bound"
)
STACK.add_argument(
    "--store", metavar="DIR",
    help="directory for the disk-backed result store "
    "(default: in-memory cache only)",
)


class UsageError(Exception):
    """Bad user input: :func:`main` prints ``error: ...`` and returns 2."""


@contextlib.contextmanager
def user_input():
    """Turn what bad input raises inside the block -- an unknown name, a
    bad spec, an unreadable file -- into a :class:`UsageError`.  Work
    done after the block (an engine run) keeps its traceback."""
    try:
        yield
    except (KeyError, ValueError, TypeError, OSError) as exc:
        # KeyError's str() quotes its message; OSError's args[0] is the
        # bare errno, its str() the message.
        plain = exc.args and not isinstance(exc, OSError)
        raise UsageError(exc.args[0] if plain else str(exc)) from None


def _check_backend(name: Optional[str]) -> None:
    """Read now what a pool reads when it is made -- for ``--backend
    pool``, and for an unset backend, which a big enough Sample-Align-D
    job resolves to ``pool`` -- so a ``REPRO_POOL_WORKERS`` that is not
    a positive integer is a ``ValueError`` inside :func:`user_input`,
    not a traceback from the middle of a run."""
    if name is None or name.lower() == "pool":
        from repro.pool.workers import default_worker_count

        default_worker_count()


def build_parser() -> argparse.ArgumentParser:
    from repro.cli import plan, run, serve, stages

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sample-Align-D: parallel MSA via phylogenetic sampling "
        "and domain decomposition (IPDPS 2008 reproduction)",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, **kwargs) -> argparse.ArgumentParser:
        # No prefix matching: `--dist` must not parse as one of the
        # `--distance*` flags.
        p = sub.add_parser(name, allow_abbrev=False, **kwargs)
        p.set_defaults(handler=handler)
        return p

    for module in (run, stages, plan, serve):
        module.add_commands(command)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
