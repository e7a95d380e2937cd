"""Command-line front end: profile, simulate, compare, schemata, validate.

Exit status: 0 success, 2 validation error, 3 infeasible SLO (or, for
compare, no offered load to scale).  Output files are written atomically; a
failing run leaves no partial output behind.
"""

from __future__ import annotations

import functools
import gc
import os
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING

from coco.errors import ApplyDriftError, CocoError, InfeasibleSloError, ScenarioError
from coco.params import Policy
from coco.scenario import _choice, _distinct_policies, dump_profiles, load_scenario

if TYPE_CHECKING:
    import argparse

    from coco.resctrl import ApplyReport
    from coco.sim import CompareResult, SimMetrics

CSV_HEADER = "policy,workload,affordable_load,retainment,violations,migrations,overhead_fraction"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3


def _fmt(x: float) -> str:
    return format(x, ".10g")


def _write_stdout(content: str, *, utf8: bool = True) -> None:
    """Every write to stdout: a report as UTF-8, the bytes of its ``-o`` file,
    whatever the locale; a line for the terminal (``utf8=False``) in the
    stream's own encoding, so a path prints as given.

    A process started with stdout closed has no ``sys.stdout``: it writes
    nothing, as ``print`` does.  A failed write or flush (a full device, a
    closed pipe) is a one-line error, and what is still buffered goes to
    the null device, so the interpreter's flush at exit cannot fail again.
    """
    out = sys.stdout
    if out is None:
        return
    try:
        binary = getattr(out, "buffer", None) if utf8 else None
        if binary is None:  # a text-only stream (a StringIO) has no encoding to get wrong
            out.write(content)
            out.flush()
        else:
            out.flush()
            binary.write(content.encode("utf-8"))
            binary.flush()
    except OSError as e:
        _to_null_device(out)
        raise CocoError(f"<stdout>: {e.strerror or e}") from None


def _write_stderr(content: str) -> None:
    """Every write to stderr: coco's ``error:`` line, the group lines of
    ``schemata --apply`` and argparse's usage error.

    A process started with stderr closed has no ``sys.stderr``: it writes
    nothing, where ``print`` would fall back to stdout.  A failed write or
    flush loses the text, there being nowhere left to report it, and stderr
    goes to the null device: the exit status stays the command's own.
    """
    err = sys.stderr
    if err is None:
        return
    try:
        err.write(content)
        err.flush()
    except OSError:
        _to_null_device(err)


def _to_null_device(stream) -> None:
    """Point ``stream``'s descriptor at the null device, so what is still
    buffered cannot fail again at the interpreter's flush at exit."""
    try:
        fd = stream.fileno()
    except (OSError, ValueError):  # no descriptor: nothing to flush at exit
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _write_output(path: str | None, content: str) -> None:
    """The report, atomically into ``path``, or on stdout if ``path`` is None."""
    if path is None:
        _write_stdout(content)
        return
    tmp = Path(path + ".tmp")
    try:
        tmp.write_text(content, encoding="utf-8")
        os.replace(tmp, path)
    except OSError as e:
        if tmp.is_file():  # written, or half-written, before the failure
            tmp.unlink()
        # a .tmp that is still there was not ours to write: name it, leave it
        raise CocoError(f"{tmp if tmp.exists() else path}: {e.strerror or e}") from None


def _metrics_csv_rows(policy: Policy, metrics: SimMetrics) -> list[str]:
    rows = []
    for name, m in metrics.per_workload.items():
        rows.append(",".join([
            policy.value, name, _fmt(m.affordable_load), _fmt(m.retainment),
            str(m.slo_violations), str(metrics.migrations),
            _fmt(metrics.overhead_fraction)]))
    return rows

def _policy_total_row(policy: Policy, metrics: SimMetrics) -> str:
    affordable = sum(m.affordable_load for m in metrics.per_workload.values())
    violations = sum(m.slo_violations for m in metrics.per_workload.values())
    return ",".join([
        policy.value, "all", _fmt(affordable), _fmt(metrics.total_retainment),
        str(violations), str(metrics.migrations), _fmt(metrics.overhead_fraction)])


def _table(rows: list[list[str]]) -> str:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip()
             for r in rows]
    return "\n".join(lines) + "\n"


def _simulate_report(policy: Policy, metrics: SimMetrics, fmt: str) -> str:
    if fmt == "csv":
        return "\n".join([CSV_HEADER] + _metrics_csv_rows(policy, metrics)) + "\n"
    rows = [["workload", "affordable_load", "retainment", "violations", "quanta"]]
    for name, m in metrics.per_workload.items():
        rows.append([name, _fmt(m.affordable_load), _fmt(m.retainment),
                     str(m.slo_violations), str(m.quanta_received)])
    footer = (f"policy={policy.value} migrations={metrics.migrations} "
              f"overhead_fraction={_fmt(metrics.overhead_fraction)} "
              f"total_retainment={_fmt(metrics.total_retainment)}\n")
    return _table(rows) + footer


def _compare_report(result: CompareResult, fmt: str) -> str:
    if fmt == "csv":
        lines = [CSV_HEADER]
        lines.extend(_policy_total_row(p, m) for p, m in result.rows)
        return "\n".join(lines) + "\n"
    rows = [["policy", "workload", "affordable_load", "retainment"]]
    for policy, metrics in result.rows:
        for name, m in metrics.per_workload.items():
            rows.append([policy.value, name, _fmt(m.affordable_load),
                         _fmt(m.retainment)])
    summary = [["policy", "total_retainment", "migrations",
                "overhead_fraction", "vs_none"]]
    for policy, metrics in result.rows:
        ratio = result.ratios.get(policy)
        summary.append([policy.value, _fmt(metrics.total_retainment),
                        str(metrics.migrations), _fmt(metrics.overhead_fraction),
                        _fmt(ratio) if ratio is not None else "-"])
    return _table(rows) + "\n" + _table(summary)


def _cmd_validate(args) -> int:
    loaded = load_scenario(args.scenario)
    _write_stdout(f"{loaded.path}: ok ({len(loaded.workloads)} workloads, "
                  f"{loaded.machine.clos_count} CLOSs, {loaded.machine.llc_ways} ways)\n",
                  utf8=False)
    return EXIT_OK


def _cmd_profile(args) -> int:
    loaded = load_scenario(args.scenario)
    # model workloads were profiled when the scenario loaded
    profiles = {lw.spec.name: (lw.spec.profile, lw.spec.sl_full)
                for lw in loaded.workloads if lw.model is not None}
    if not profiles:
        raise ScenarioError(f"{loaded.path}: no workload carries a model to profile")
    _write_output(args.output, dump_profiles(profiles))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    from coco.sim import run_scenario  # only simulate and compare load the simulator

    loaded = load_scenario(args.scenario)
    scenario = loaded.scenario(seed=args.seed)
    metrics = run_scenario(scenario)
    _write_output(args.output, _simulate_report(scenario.policy, metrics, args.format))
    return EXIT_OK


def _cmd_compare(args) -> int:
    from coco.sim import compare_policies

    policies = None
    if args.policies is not None:  # a misspelt name is reported before the file is read
        policy = _choice(Policy)
        names = [p.strip() for p in args.policies.split(",") if p.strip()]
        policies = _distinct_policies(tuple(policy(n, "--policies") for n in names),
                                      "--policies")
    loaded = load_scenario(args.scenario)
    if policies is None:
        policies = list(loaded.policies) or list(Policy)
    result = compare_policies(loaded.scenario(seed=args.seed), policies)
    _write_output(args.output, _compare_report(result, args.format))
    return EXIT_OK


def _cmd_schemata(args) -> int:
    from coco import resctrl  # only this command needs it: spare the others its import
    from coco.closconfig import default_partition

    # a refused root is reported before the file is read
    layout = resctrl.ResctrlLayout.from_env(args.root) if args.apply else None
    loaded = load_scenario(args.scenario)
    clos_set = loaded.clos_set or default_partition(loaded.machine)
    _write_stdout(resctrl.serialize_clos_set(clos_set))
    if args.apply:
        try:
            report = resctrl.apply(clos_set, layout)
        except ApplyDriftError as e:  # each group's line, then the one-line error
            _print_groups(e.report)
            raise
        _print_groups(report)
        if not report.ok:
            return EXIT_VALIDATION
    return EXIT_OK


def _print_groups(report: ApplyReport) -> None:
    _write_stderr("".join(f"{g.group}: {g.action}" + (f" ({g.error})" if g.error else "")
                          + "\n" for g in report.groups))


# Each command's options after its scenario, in help order: flags, then
# argparse's keywords.  `_plain_args` and `build_parser` both read this table.
_OUTPUT = (("-o", "--output"), {"default": None, "help": "output file"})
_SEED = (("--seed",), {"type": int, "default": None, "help": "override sim seed"})
_FORMAT = (("--format",), {"choices": ("csv", "table"), "default": "table"})
_POLICIES = (("--policies",), {"default": None, "help": "comma-separated policy names "
                                                        "(default: scenario's list)"})
_APPLY = (("--apply",), {"action": "store_true",
                         "help": "write group directories under the resctrl root"})
_ROOT = (("--root",), {"default": None,
                       "help": "resctrl root path (default: $RESCTRL_ROOT or /sys/fs/resctrl)"})
# command -> (help, handler, options)
_COMMANDS = {
    "validate": ("schema-check a scenario file", _cmd_validate, ()),
    "profile": ("profile ground-truth models into a profile file", _cmd_profile, (_OUTPUT,)),
    "simulate": ("run the scenario's policy once", _cmd_simulate, (_OUTPUT, _SEED, _FORMAT)),
    "compare": ("affordable-load comparison across policies", _cmd_compare,
                (_OUTPUT, _SEED, _POLICIES, _FORMAT)),
    "schemata": ("print (optionally apply) the CLOS set", _cmd_schemata, (_APPLY, _ROOT)),
}


def _dest(flags: tuple[str, ...]) -> str:
    return flags[-1].lstrip("-")


def _plain_args(argv: list[str]) -> SimpleNamespace | None:
    """The namespace ``build_parser().parse_args(argv)`` returns, for the plain
    form: ``<command> <scenario>``, then options spelt as ``_COMMANDS`` lists
    them, each at most once, with a value that does not start with ``-`` and
    that argparse accepts; None for any other command line.

    So argparse, and its import, run only for help, a usage error and the
    forms only it reads: an abbreviated, ``=``-joined or repeated option,
    ``--``, a scenario or value starting with ``-``.
    """
    if len(argv) < 2 or argv[0] not in _COMMANDS or argv[1].startswith("-"):
        return None
    _help, func, options = _COMMANDS[argv[0]]
    values = {"command": argv[0], "scenario": argv[1], "func": func}
    for flags, kwargs in options:
        values[_dest(flags)] = kwargs.get("default", False)
    given = {flag: (_dest(flags), kwargs) for flags, kwargs in options for flag in flags}
    seen = set()
    words = iter(argv[2:])
    for word in words:
        if word not in given or given[word][0] in seen:
            return None
        dest, kwargs = given[word]
        seen.add(dest)
        if kwargs.get("action") == "store_true":
            values[dest] = True
            continue
        value = next(words, "-")  # a missing value declines as an option-like one
        if value.startswith("-") or value not in kwargs.get("choices", (value,)):
            return None
        if "type" in kwargs:
            try:
                value = kwargs["type"](value)
            except ValueError:
                return None
        values[dest] = value
    return SimpleNamespace(**values)


@functools.cache
def _parser_class() -> type:
    """argparse's parser, with its help on stdout through ``_write_stdout``
    and its usage error on stderr through ``_write_stderr``: argparse itself
    drops a failed write, exits 0 with the help lost, and prints the usage
    on stdout when there is no stderr.  Built on first use, so a plain
    command line never imports argparse."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def print_help(self, file=None):
            if file is None:
                _write_stdout(self.format_help(), utf8=False)
            else:
                super().print_help(file)

        def error(self, message):
            _write_stderr(f"{self.format_usage()}{self.prog}: error: {message}\n")
            sys.exit(EXIT_VALIDATION)

    return _Parser


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of every command line ``_plain_args`` declines."""
    parser = _parser_class()(
        prog="coco",
        description="Time-shared CLOS partitioning: profiling, scheduling, simulation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_, func, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_)
        p.add_argument("scenario", help="scenario YAML file")
        for flags, kwargs in options:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _plain_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            args = build_parser().parse_args(argv)
        return args.func(args)
    except InfeasibleSloError as e:
        _write_stderr(f"error: {e}\n")
        return EXIT_INFEASIBLE
    except CocoError as e:
        _write_stderr(f"error: {e}\n")
        return EXIT_VALIDATION


def run() -> None:
    """The ``coco`` command: ``main``, then the process exit.

    The interpreter's last collections at exit would walk every module,
    class and function cycle the command imported or built, only to free
    memory the OS takes back anyway; freezing the collector first skips
    that walk.  Everything else about exit is as for ``sys.exit(main())``:
    atexit handlers, stream flushing, exit codes and tracebacks.  ``main``
    itself leaves the collector alone, for callers that stay in-process.
    """
    try:
        sys.exit(main())
    finally:  # also on argparse's usage exit and on a traceback
        gc.freeze()


if __name__ == "__main__":
    run()
