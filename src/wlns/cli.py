"""Command-line front end: simulate, diagnose, counterexample, recursive, gronwall.

One executable, five subcommands, INI configs for the solver, CSV + JSON
manifest outputs.  Exit codes: 0 on success, 1 for usage/config problems
(malformed or unreadable files report the offending line or the reason), 2
when a run halts on blow-up, overflow, an interrupt, SIGTERM, running out of
memory or a failed snapshot write (partial outputs are still flushed).
"""

from __future__ import annotations

import argparse
import configparser
import datetime
import glob
import hashlib
import json
import math
import os
import signal
import sys
import threading
import time
from dataclasses import asdict, dataclass, field as dc_field, fields
from pathlib import Path
from typing import Optional, Sequence

def _file_entry(out_dir: Path, name: str) -> dict:
    path, digest = out_dir / name, hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return {"path": name, "sha256": digest.hexdigest(), "bytes": path.stat().st_size}


@dataclass
class RunManifest:
    """Reproducibility record written next to every file-producing run.

    The clock starts when the record is made.  :meth:`start` creates the
    output directory, :meth:`output` registers a file in it, and
    :meth:`write` checksums the registered files into ``manifest.json``.
    """

    subcommand: str
    config: dict
    seed: Optional[int] = None
    halted: Optional[str] = None
    started_utc: str = ""
    finished_utc: str = ""
    wall_seconds: float = 0.0
    outputs: list = dc_field(default_factory=list)

    def __post_init__(self):
        self._t0 = time.monotonic()
        self.started_utc = datetime.datetime.now(datetime.timezone.utc).isoformat()

    def start(self, out: str):
        self.out_dir = Path(out)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self._names = []
        return self

    def output(self, name: str) -> Path:
        self._names.append(name)
        return self.out_dir / name

    def write(self):
        from wlns import __version__

        self.finished_utc = datetime.datetime.now(datetime.timezone.utc).isoformat()
        self.wall_seconds = time.monotonic() - self._t0
        self.outputs = [_file_entry(self.out_dir, name) for name in sorted(self._names)]
        with open(self.out_dir / "manifest.json", "w") as fh:
            json.dump({**asdict(self), "version": __version__}, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _options(args, **resolved) -> dict:
    """A manifest ``config``: every parsed option, ``resolved`` ones as the run used them.

    Only the dispatch is left out: the subcommand is the manifest's own field.
    """
    options = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    return {**options, **resolved}


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


# ---------------------------------------------------------------------------
# simulate


# [solver] keys for the grid and the initial condition; the rest are SolverConfig fields.
_SETUP_KEYS = {
    "n",
    "box_length",
    "initial_condition",
    "amplitude",
    "seed",
    "max_mode",
    "mode",
    "direction",
}


def _parse_triplet(raw: str, what: str) -> tuple:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 3:
        raise ValueError(f"{what} needs three comma-separated values, got '{raw}'")
    return tuple(float(p) for p in parts)


def _load_run_config(path: str):
    """Parse the INI run description into (grid, u0, SolverConfig, q, output opts).

    Raises ValueError with a section/key-qualified message on bad values;
    syntax errors surface as configparser errors that carry line numbers.
    """
    from wlns.criteria import prodi_serrin_p
    from wlns.field import Grid
    from wlns.nse_solver import SolverConfig, random_divfree, single_mode, taylor_green

    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(path) as fh:
        parser.read_file(fh, source=os.path.basename(path))
    if not parser.has_section("solver"):
        raise ValueError("config needs a [solver] section")
    solver = parser["solver"]
    config_fields = fields(SolverConfig)
    unknown = set(solver) - _SETUP_KEYS - {f.name for f in config_fields}
    if unknown:
        raise ValueError(f"[solver] has unknown keys: {', '.join(sorted(unknown))}")

    def pick(section, key, cast, default):
        raw = section.get(key)
        if raw is None:
            return default
        try:
            return cast(raw)
        except ValueError:
            raise ValueError(f"[{section.name}] {key}: cannot parse '{raw}'")

    n = pick(solver, "n", int, None)
    if n is None:
        raise ValueError("[solver] n is required")
    grid = Grid(n, length=pick(solver, "box_length", float, 2.0 * math.pi))
    config = SolverConfig(
        **{f.name: pick(solver, f.name, type(f.default), f.default) for f in config_fields}
    )

    kind = solver.get("initial_condition", "taylor_green").strip()
    amplitude = pick(solver, "amplitude", float, 1.0)
    if not math.isfinite(amplitude):
        raise ValueError(f"[solver] amplitude must be finite, got {amplitude!r}")
    seed = pick(solver, "seed", int, None)
    if kind == "taylor_green":
        u0 = taylor_green(grid, amplitude=amplitude)
    elif kind == "single_mode":
        raw_mode = solver.get("mode", "0,0,1")
        mode = _parse_triplet(raw_mode, "[solver] mode")
        if not all(m.is_integer() and abs(m) < 2**63 for m in mode):  # false for inf and nan
            raise ValueError(f"[solver] mode needs int64 components, got '{raw_mode}'")
        direction = _parse_triplet(solver.get("direction", "1,0,0"), "[solver] direction")
        try:
            u0 = single_mode(
                grid, mode=[int(m) for m in mode], direction=direction, amplitude=amplitude
            )
        except ValueError as exc:
            raise ValueError(f"[solver] {exc}") from None
    elif kind == "random":
        if seed is None:
            raise ValueError("[solver] random initial condition needs a seed")
        # the field is projected here, which needs |k|^2 finite up to the corner mode
        k = math.pi * n / grid.length
        if not math.isfinite(3.0 * k * k):
            raise ValueError(f"[solver] box_length {grid.length!r} is too small: |k|^2 overflows")
        u0 = random_divfree(
            grid, seed=seed, max_mode=pick(solver, "max_mode", int, None), amplitude=amplitude
        )
    else:
        raise ValueError(f"[solver] unknown initial_condition '{kind}'")

    q = None
    if parser.has_section("diagnostics"):
        q = pick(parser["diagnostics"], "q", float, None)
        if q is not None:
            try:
                prodi_serrin_p(q)
            except ValueError as exc:
                raise ValueError(f"[diagnostics] {exc}") from None

    prefix, write_snapshots = "run", True
    if parser.has_section("output"):
        out = parser["output"]
        prefix = out.get("prefix", "run").strip()
        if {os.sep, os.altsep} & set(prefix):
            raise ValueError(f"[output] prefix must not contain a path separator, got '{prefix}'")
        write_snapshots = pick(out, "write_snapshots", _parse_bool, True)

    snapshot = {
        section: dict(parser[section]) for section in parser.sections()
    }
    return grid, u0, config, q, seed, prefix, write_snapshots, snapshot


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


def _terminate(signum, frame):
    """SIGTERM handler: the run halts as on Ctrl-C, and the manifest names the signal."""
    raise KeyboardInterrupt("terminated")


def _cmd_simulate(args) -> int:
    from wlns.field import write_snapshot
    from wlns.nse_solver import BlowUpError, run

    try:
        # the initial field sits alone in the list ``initial``: run takes the only
        # reference to it and lets it go once the solver state is built
        _, *initial, config, q, seed, prefix, snaps, snapshot = _load_run_config(args.config)
    except (OSError, configparser.Error, ValueError) as exc:
        return _fail(str(exc))
    except MemoryError as exc:  # every array the config builds has n^3 entries
        return _fail(f"[solver] n: {exc}")

    manifest = RunManifest("simulate", snapshot, seed=seed).start(args.out)
    written = []

    def sink(t, u):
        if snaps:
            # named before the rename makes it visible, so no complete file goes
            # unlisted; a file of an earlier run under that name goes first
            written.append(manifest.out_dir / f"{prefix}_{len(written):06d}.bin")
            written[-1].unlink(missing_ok=True)
            write_snapshot(written[-1], t, u)

    # only the main thread may set a handler; the old one comes back after the run
    main_thread = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGTERM, _terminate) if main_thread else None
    try:
        result = run(initial.pop(), config, q=q, sink=sink)
    except BlowUpError as exc:
        manifest.halted, result = str(exc), exc.result
    except KeyboardInterrupt as exc:
        # the snapshots written so far stay listed, with the trace up to them
        manifest.halted, result = str(exc) or "interrupted", getattr(exc, "result", None)
    except MemoryError as exc:
        manifest.halted, result = "out of memory", getattr(exc, "result", None)
    except OSError as exc:
        manifest.halted, result = f"write failed: {exc}", getattr(exc, "result", None)
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
    for path in written:
        if path.exists():  # write_snapshot leaves each file complete or absent
            manifest.output(path.name)
    if result is not None and result.trace is not None:
        result.trace.to_csv(manifest.output("trace.csv"))
    manifest.write()
    if manifest.halted is not None:
        print(f"halted: {manifest.halted}", file=sys.stderr)
        return 2
    print(f"simulate: {len(result.times)} snapshots -> {manifest.out_dir}")
    return 0


# ---------------------------------------------------------------------------
# diagnose


def _cmd_diagnose(args) -> int:
    from wlns.criteria import CriterionTrace, evaluate_row
    from wlns.degiorgi import CylinderMap, CylinderScheme, level_energy
    from wlns.field import Trajectory, read_snapshot_header, read_vector_snapshot

    import numpy as np

    paths = sorted(glob.glob(os.path.join(args.snapshots, "*.bin")))
    if not paths:
        return _fail(f"no .bin snapshots under '{args.snapshots}'")
    times, grids = [], []
    for p in paths:
        try:
            t, grid = read_snapshot_header(p)
        except (OSError, ValueError) as exc:
            return _fail(f"{p}: {exc}")
        if grids and grid != grids[0]:
            return _fail(f"{p}: grid {grid} differs from {grids[0]} of {paths[0]}")
        times.append(t)
        grids.append(grid)
    if args.cylinder_scale is not None and len(times) < 2:
        return _fail("level-set energies need at least two snapshots")
    order = np.argsort(times)
    times = [times[i] for i in order]
    paths = [paths[i] for i in order]
    grid = grids[0]
    center = None
    if args.cylinder_scale is not None:
        # level_energy checks the map and the windows before it reads a snapshot
        try:
            center = (
                _parse_triplet(args.cylinder_center, "--cylinder-center")
                if args.cylinder_center
                else (grid.length / 2.0,) * 3
            )
            cmap = CylinderMap(center=center, scale=args.cylinder_scale, t_end=times[-1])
            scheme = CylinderScheme(args.kmax)
        except ValueError as exc:
            return _fail(str(exc))

    manifest = RunManifest("diagnose", _options(args, cylinder_center=center))
    rows = []

    def snapshots():
        """Each snapshot in time order, read when asked for; its trace row on the way."""
        for t, p in zip(times, paths):
            try:
                u = read_vector_snapshot(p)[1]
            except (OSError, ValueError) as exc:
                raise ValueError(f"{p}: {exc}") from None
            rows.append(evaluate_row(u, args.q, t=t))
            yield u

    try:
        if args.cylinder_scale is None:
            for _ in snapshots():
                pass
        else:
            table = level_energy(Trajectory(grid, np.asarray(times), snapshots()), scheme, cmap)
    except ValueError as exc:
        return _fail(str(exc))

    manifest.start(args.out)
    if args.cylinder_scale is not None:
        table.to_csv(manifest.output("levels.csv"))
    CriterionTrace.from_rows(args.q, rows).to_csv(manifest.output("trace.csv"))
    manifest.write()
    print(f"diagnose: {len(times)} snapshots -> {manifest.out_dir}")
    return 0


# ---------------------------------------------------------------------------
# counterexample


def _cmd_counterexample(args) -> int:
    from wlns.counterexample import (
        DyadicSchedule,
        claim2_lower_bound,
        criterion_vs_lorentz,
        write_schedule_csv,
    )
    from wlns.field import write_table

    if args.terms >= 2**59:  # 4 EiB of 8-byte terms, which numpy may not even size
        return _fail(f"--terms {args.terms}: its arrays exceed any address space")
    try:
        schedule = DyadicSchedule(q=args.q, t_inf=args.t_inf)
        report = criterion_vs_lorentz(schedule, r=args.r, n_terms=args.terms)
        claim2_lower_bound(schedule, 2, args.r)  # overflows as the schedule table would
    except ValueError as exc:
        return _fail(str(exc))
    except MemoryError as exc:
        return _fail(f"--terms {args.terms}: {exc}")
    except OverflowError:
        return _fail(f"--r {args.r!r} with --t-inf {args.t_inf!r} overflows a float")

    manifest = RunManifest("counterexample", _options(args)).start(args.out)

    write_schedule_csv(manifest.output("schedule.csv"), schedule, n_terms=args.terms, r=args.r)
    columns = {
        "N": report.checkpoints,
        "criterion_partial": report.criterion_partials,
        "criterion_upper_bound": [report.criterion_upper_bound] * len(report.checkpoints),
        "time_norm_log2": report.time_norm_log2,
        "time_norm": report.time_norms,
        "time_norm_direct": report.time_norms_direct,
    }
    write_table(manifest.output("separation.csv"), columns, index="N")
    manifest.write()

    print(
        f"criterion partial sum at N={args.terms}: "
        f"{float(report.criterion_partials[-1])!r} "
        f"(upper bound {float(report.criterion_upper_bound)!r})"
    )
    print(f"L^(p,{args.r:g}) time norm at N={args.terms}: {float(report.time_norms[-1])!r}")
    return 0


# ---------------------------------------------------------------------------
# recursive


def _cmd_recursive(args) -> int:
    from wlns.degiorgi import recursive_sequence, threshold_scan

    try:
        if args.scan:
            bracket = threshold_scan(args.C, args.beta, k_max=args.kmax, tol=args.tol)
            print(f"critical W0 bracket: [{bracket.lower!r}, {bracket.upper!r}]")
            print(f"width: {bracket.width!r}")
            return 0
        if args.w0 is None:
            return _fail("--w0 is required unless --scan is given")
        result = recursive_sequence(args.C, args.beta, args.w0, args.kmax)
    except ValueError as exc:
        return _fail(str(exc))
    for k, w in enumerate(result.values):
        print(f"W[{k}] = {float(w)!r}")
    print(f"converged: {'true' if result.converged else 'false'}")
    return 0


# ---------------------------------------------------------------------------
# gronwall


def _cmd_gronwall(args) -> int:
    from wlns.gronwall import (
        BoundProblem,
        implicit_check,
        read_signal_csv,
        solve_bound,
        write_bound_csv,
    )

    import numpy as np

    for flag, value in (("--C", args.C), ("--H0", args.H0), ("--dt", args.dt)):
        if value is not None and not value > 0:
            return _fail(f"{flag} must be > 0, got {value!r}")
        # an infinite --dt is allowed: one output piece per sample
        if flag != "--dt" and value == math.inf:
            return _fail(f"{flag} must be finite, got {value!r}")
    try:
        times, values = read_signal_csv(args.b_csv)
        problem = BoundProblem.from_samples(times, values, c=args.C, h0=args.H0)
        solution = solve_bound(problem, dt=args.dt)
    except (OSError, ValueError) as exc:
        return _fail(f"{args.b_csv}: {exc}")
    except MemoryError as exc:  # only the --dt densification can ask this much
        return _fail(f"--dt {args.dt!r}: {exc}")
    deviations = implicit_check(solution)

    manifest = RunManifest("gronwall", _options(args)).start(args.out)
    write_bound_csv(manifest.output("bound.csv"), solution, deviations)
    manifest.halted = solution.note or None
    manifest.write()

    if solution.overflowed:
        print(f"halted: {solution.note}", file=sys.stderr)
        return 2
    print(
        f"H({float(solution.times[-1])!r}) = {float(solution.h[-1])!r}, "
        f"max |deviation| = {float(np.max(np.abs(deviations)))!r}"
    )
    return 0


# ---------------------------------------------------------------------------
# parser


_CONFIG_HELP = """\
run config keys ([solver] section):
  n                  grid points per axis (required, even, >= 8)
  box_length         box edge length (default 2*pi)
  viscosity          kinematic viscosity (default 1.0)
  dt, t_end          time step and final time (defaults 1e-3, 0.1)
  dealias_fraction   retained-mode fraction (default 2/3)
  snapshot_every     steps between snapshots (default 1)
  blowup_threshold   max|u| halt level, positive (default 1e8)
  initial_condition  taylor_green | single_mode | random
  amplitude          initial-condition amplitude (default 1.0)
  seed               RNG seed (required for random)
  max_mode           band limit for random (default n/4)
  mode, direction    wavevector/direction triplets for single_mode

[diagnostics] q      criterion exponent in (3, 9); enables the trace CSV
[output] prefix      snapshot filename prefix, no path separator (default run)
[output] write_snapshots   true/false (default true)
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wlns",
        description="Spectral Navier-Stokes toolbox: weak-norm criteria, "
        "level-set energies, the dyadic counterexample, and Gronwall bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "simulate",
        help="run the spectral solver from an INI config",
        epilog=_CONFIG_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("config", help="INI run description")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("diagnose", help="recompute diagnostics from stored snapshots")
    p.add_argument("snapshots", help="directory of .bin snapshots")
    p.add_argument("--q", type=float, required=True, help="criterion exponent")
    p.add_argument("--out", required=True)
    p.add_argument(
        "--cylinder-scale",
        type=float,
        default=None,
        help="also emit the level-set energy table at this spatial scale",
    )
    p.add_argument(
        "--cylinder-center",
        default=None,
        help="cylinder center 'x,y,z' (default: box center)",
    )
    p.add_argument("--kmax", type=int, default=8, help="deepest truncation level")
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("counterexample", help="dyadic schedule tables and the separation report")
    p.add_argument("--q", type=float, default=6.0)
    p.add_argument("--r", type=float, default=2.0)
    p.add_argument("--terms", type=int, default=40)
    p.add_argument("--t-inf", type=float, default=1.0, dest="t_inf")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("recursive", help="iterate the superlinear decay recursion")
    p.add_argument("--C", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--w0", type=float, default=None)
    p.add_argument("--kmax", type=int, default=60)
    p.add_argument("--scan", action="store_true", help="bracket the critical W0 instead")
    p.add_argument("--tol", type=float, default=1e-12, help="scan bracket width")
    p.set_defaults(func=_cmd_recursive)

    p = sub.add_parser("gronwall", help="integrate H' = C Psi(H) B(t) from a (t,B) CSV")
    p.add_argument("b_csv", help="two-column CSV of the signal B")
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--H0", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=None, help="output grid spacing")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gronwall)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed the usage; --help exits 0
        return 1 if exc.code else 0
    # before any work: RunManifest.start needs a directory, or a missing path below one
    out = getattr(args, "out", None)
    if out is not None:
        existing = next(p for p in (Path(out), *Path(out).parents) if os.path.lexists(p))
        if not existing.is_dir():
            return _fail(f"--out '{out}' is not a directory")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
