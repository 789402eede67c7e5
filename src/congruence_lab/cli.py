"""Command line front end.

Each subcommand declares its options once, in _COMMANDS: name, converter,
default or required, and allowed values.  The argument parser, --help and
config-file handling all come from that table, so a subcommand accepts only
its own options.  main builds the parser of the invoked subcommand only;
--help, a missing command and an unknown one get the parser of all of them.
Values come from flags or from a flat key=value config file (--config);
flags win over config values, which win over defaults.  A config key the
subcommand does not declare, or one given twice, is refused, and config
values pass the same conversion and choice checks as flags.  Exit codes: 0
success, 2 validation failure (the message names the violated precondition
or option), 1 internal error.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import averaged, congruence, dp6, gausssum, reports, sawtooth


def load_config(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    lines: dict[str, int] = {}  # key -> line number that set it
    with open(path) as fh:
        for number, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line is not key=value: {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in lines:
                raise ValueError(f"config key {key!r} is given twice, on lines"
                                 f" {lines[key]} and {number}")
            lines[key] = number
            cfg[key] = value
    return cfg


# ---- converters: text -> value, ValueError on bad text ----

def _boolean(text: str) -> bool:
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def finite_float(text: str) -> float:
    """float(text), refused when it is nan or infinite: no float option has
    a meaning there, and JSON cannot hold such a value."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


# errors on text float() cannot read keep float()'s wording, "invalid float value"
finite_float.__name__ = "float"


def fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def int_list(text: str) -> list[int]:
    values = [int(part) for part in text.split(",") if part.strip()]
    if not values:
        raise ValueError(f"no integer in {text!r}")
    return values


def _modulus(q: int) -> int:
    return q


def box_side(text: str):
    """A count-scan box side: 'q' (the modulus itself) or a fixed rational."""
    return _modulus if text == "q" else fraction(text)


@dataclass(frozen=True)
class Option:
    """One option of one subcommand.  The default is the text a user would
    type and is converted like any flag value; None leaves the option unset."""

    name: str
    kind: Callable[[str], object]  # bool makes a switch: --name sets it
    default: str | None = None
    required: bool = False
    choices: tuple[str, ...] | None = None

    @property
    def dest(self) -> str:
        return self.name.replace("-", "_")

    def convert(self, text: str):
        return _boolean(text) if self.kind is bool else self.kind(text)

    def from_config(self, text: str):
        try:
            value = self.convert(text)
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"config key {self.name!r}: {exc}") from None
        except ValueError:
            raise ValueError(
                f"config key {self.name!r}: invalid {self.kind.__name__} value {text!r}"
            ) from None
        if self.choices and value not in self.choices:
            raise ValueError(f"config key {self.name!r}: {value!r} is not one of"
                             f" {', '.join(self.choices)}")
        return value


def _req(name: str, kind) -> Option:
    return Option(name, kind, required=True)


_OUT = (Option("out", str), Option("format", str, "csv", choices=("csv", "json")))
_SEEDS = (Option("seed", int, "0"), Option("seeds", int, "1"))
_TIMINGS = Option("timings", bool, "false")


def _fmt_row(values: dict) -> dict[str, str]:
    return {key: reports.fmt(value) for key, value in values.items()}


def _emit(o: argparse.Namespace, description: str, fields, rows) -> None:
    if o.out:
        reports.write_report(o.out, o.format, description, fields, rows)
        print(f"wrote {len(rows)} rows to {o.out}")


def _check_seeds(o: argparse.Namespace) -> None:
    if o.seeds < 1:
        raise ValueError(f"--seeds must be >= 1, got {o.seeds}")


def _cmd_gauss(o: argparse.Namespace) -> int:
    closed = gausssum.gauss_closed(o.s, o.t, o.u)
    brute = gausssum.gauss_brute(o.s, o.t, o.u)
    err = abs(closed.value - brute)
    tol = 1e-6 * math.sqrt(o.u)
    print(f"G({o.s},{o.t};{o.u})")
    print(
        f"  closed = {closed.value!r}  [coefficient={closed.coefficient!r},"
        f" unit={closed.unit!r}, jacobi={closed.jacobi},"
        f" radicand={closed.radicand}, phase={closed.phase}]"
    )
    print(f"  brute  = {brute!r}")
    print(f"  |closed-brute| = {err:.3e}  tolerance = {tol:.3e}  match = {err <= tol}")
    return 0 if err <= tol else 1


def _cmd_count(o: argparse.Namespace) -> int:
    inst = congruence.CongruenceInstance(o.a, o.b, o.q, o.X, o.Y, o.e, o.f)
    if (inst.e, inst.f) != (1, 2) and o.out:
        raise ValueError(f"--out applies only to e = 1, f = 2, got e = {inst.e}, f = {inst.f}")
    if (inst.e, inst.f) == (1, 2):
        rep = congruence.box_report(inst)
        print(f"exact     = {rep.exact}")
        print(f"main_term = {rep.main_term!r}")
        print(f"envelope  = {rep.envelope!r}")
        print(f"ratio     = {rep.ratio!r}")
        _emit(o, "congruence box counts: exact vs main term and error envelope",
              reports.BOX_FIELDS, [reports.box_row(rep, o.timings)])
    else:
        exact = congruence.count_exact(inst)
        print(f"exact     = {exact}")
        print("main_term = (defined only for e=1, f=2)")
    return 0


def _cmd_count_scan(o: argparse.Namespace) -> int:
    if o.primes_up_to < 2:
        raise ValueError(f"--primes-up-to must be >= 2, got {o.primes_up_to}")
    for name, coefficient in (("a", o.a), ("b", o.b)):
        if coefficient == 0:
            raise ValueError(f"--{name} must be nonzero, got 0")
    for name, side in (("x", o.x), ("y", o.y)):
        if side is not _modulus and side < 1:
            raise ValueError(f"--{name} must be q or a rational >= 1, got {side}")
    qs = dp6.sieve_primes(o.primes_up_to) if o.q_list is None else o.q_list
    reps = congruence.scan_boxes(qs, o.a, o.b, o.x, o.y)
    rows = [reports.box_row(r, o.timings) for r in reps]
    worst = max((r.ratio for r in reps), default=0.0)
    print(f"instances = {len(reps)}   max |exact - main|/envelope = {worst!r}")
    _emit(o, "congruence box counts: exact vs main term and error envelope",
          reports.BOX_FIELDS, rows)
    return 0


def random_floats(seed: int, n: int) -> np.ndarray:
    """[random.Random(seed).random() for _ in range(n)] as one float64 array,
    bit for bit: Python's MT19937 state drawn by numpy's legacy RandomState,
    whose stream and 53-bit doubles NEP 19 freezes."""
    key = random.Random(seed).getstate()[1]
    state = np.random.RandomState()
    state.set_state(("MT19937", np.array(key[:624], dtype=np.uint32), key[624]))
    return state.random_sample(n)


def _cmd_vaaler(o: argparse.Namespace) -> int:
    if o.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {o.samples}")
    xs = random_floats(o.seed, o.samples)
    violations, worst = sawtooth.majorant_slack(xs, o.H)
    print(f"H = {o.H}: {violations} violations in {o.samples} samples;"
          f" worst slack = {worst!r}")
    row = dict(H=o.H, samples=o.samples, seed=o.seed, violations=violations, worst_slack=worst)
    _emit(o, "sawtooth approximation: majorant violations at random points",
          reports.VAALER_FIELDS, [_fmt_row(row)])
    return 0


def _cmd_avg_scan(o: argparse.Namespace) -> int:
    _check_seeds(o)
    family_args = dict(
        l=o.l, m=o.m, r=o.r, s=o.s, t=o.t, U=o.U, V=o.V, W=o.W,
        J=congruence.Interval(o.y0, o.Y),
        bounds=averaged.constant_bounds(o.X),
        scheme=o.scheme,
    )
    # H and the cell counts read no seed, so every seed shares them
    first = averaged.AveragedFamily(seed=o.seed, **family_args)
    H = averaged.suggest_H(first, o.epsilon) if o.H is None else o.H
    cells = averaged.cell_sums(first)
    rows = []
    for seed in range(o.seed, o.seed + o.seeds):
        fam = averaged.AveragedFamily(seed=seed, **family_args)
        rep = averaged.avg_report(fam, H, o.epsilon, cells)
        rows.append(reports.averaged_row(rep))
        print(
            f"seed {seed}: |S - M| = {abs(rep.S - rep.M)!r}  "
            f"budget = {rep.first_O + rep.T_envelope!r}  ratio = {rep.ratio!r}"
        )
    _emit(o, "averaged congruence sums: exact weighted sum vs main term vs budget",
          reports.AVERAGED_FIELDS, rows)
    return 0


def _cmd_dp6_enumerate(o: argparse.Namespace) -> int:
    # the checked int64 blocks are kept (96 bytes a point) and written as they are
    blocks = list(dp6.point_blocks(o.B, o.t))
    count = sum(len(block) for block in blocks)
    print(f"B = {o.B}, t = {o.t}: {count} points")
    if o.out:
        reports.write_table(o.out, o.format,
                            "almost-prime surface points from the q-window torsor family",
                            reports.POINT_FIELDS, blocks)
        print(f"wrote {count} rows to {o.out}")
    return 0


def _cmd_dp6_growth(o: argparse.Namespace) -> int:
    rows = dp6.m_t_growth(o.B_list, o.t)
    for row in rows:
        print(f"B = {row.B:>12}  count = {row.count:>10}  "
              f"count*log(B)^5/B = {row.normalized!r}")
    _emit(o, "almost-prime point counts by budget with log-power normalization",
          reports.GROWTH_FIELDS, [reports.growth_row(r) for r in rows])
    return 0


def _cmd_dp6_sieve(o: argparse.Namespace) -> int:
    report = dp6.sieve_condition_report(
        o.B, o.q, o.tau, o.c2, o.z_max, o.rho_max, o.t, o.mu
    )
    text = reports.json_dump(report)
    if o.out:
        reports.write_text(o.out, text)
        print(f"wrote sieve report to {o.out}")
    else:
        print(text, end="")
    return 0


def _cmd_bilinear(o: argparse.Namespace) -> int:
    if o.M < 1 or o.N < 1:
        raise ValueError("M and N must be >= 1")
    _check_seeds(o)
    rows = []
    for seed in range(o.seed, o.seed + o.seeds):
        rng = random.Random(seed)
        a = [rng.choice((-1, 1)) for _ in range((o.M + 1) // 2)]
        b = [rng.choice((-1, 1)) for _ in range(o.N)]
        res = congruence.bilinear_jacobi(a, b, o.epsilon)
        ratio = abs(res.value) / res.bound
        print(f"seed {seed}: |sum| = {abs(res.value)!r}  "
              f"bound = {res.bound!r}  ratio = {ratio!r}")
        rows.append(_fmt_row(dict(M=res.M, N=res.N, seed=seed, epsilon=o.epsilon,
                                  abs_sum=abs(res.value), bound=res.bound, ratio=ratio)))
    _emit(o, "bilinear Jacobi-symbol sums vs cancellation benchmark",
          reports.BILINEAR_FIELDS, rows)
    return 0


# name -> (handler, help, options); the only declaration of each option
_COMMANDS = {
    "gauss": (_cmd_gauss, "closed form vs direct quadratic Gauss sum", (
        _req("s", int), _req("t", int), _req("u", int),
    )),
    "count": (_cmd_count, "one exact box count with main term and envelope", (
        _req("a", int), _req("b", int), _req("q", int),
        _req("X", fraction), _req("Y", fraction),
        Option("e", int, "1"), Option("f", int, "2"), _TIMINGS, *_OUT,
    )),
    "count-scan": (_cmd_count_scan, "box counts over a family of moduli", (
        Option("primes-up-to", int, "100"), Option("q-list", int_list),
        Option("a", int, "1"), Option("b", int, "1"),
        Option("x", box_side, "q"), Option("y", box_side, "q"), _TIMINGS, *_OUT,
    )),
    "vaaler": (_cmd_vaaler, "sawtooth approximation majorant check", (
        _req("H", int), Option("samples", int, "100000"), Option("seed", int, "0"), *_OUT,
    )),
    "avg-scan": (_cmd_avg_scan, "averaged sums over dyadic coefficient families", (
        Option("l", int, "1"), Option("m", int, "1"), Option("r", int, "1"),
        Option("s", int, "1"), Option("t", int, "3"),
        Option("U", fraction, "1"), Option("V", fraction, "1"), Option("W", fraction, "1"),
        Option("y0", fraction, "0"), Option("Y", fraction, "8"), Option("X", fraction, "2"),
        Option("scheme", str, "joint", choices=averaged.SCHEMES),
        Option("H", finite_float), Option("epsilon", finite_float, "0.05"), *_SEEDS, *_OUT,
    )),
    "dp6-enumerate": (_cmd_dp6_enumerate, "almost-prime surface points", (
        _req("B", int), Option("t", int, "12"), *_OUT,
    )),
    "dp6-growth": (_cmd_dp6_growth, "almost-prime counts by budget", (
        Option("B-list", int_list, "10000,100000,1000000"), Option("t", int, "12"), *_OUT,
    )),
    "dp6-sieve": (_cmd_dp6_sieve, "sieve condition report (JSON)", (
        Option("B", int, "1000"), Option("q", int, "7"),
        Option("tau", finite_float, "0.4"), Option("c2", finite_float, "1.0"),
        Option("z-max", int, "1000"), Option("rho-max", int, "30"),
        Option("t", int, "12"), Option("mu", finite_float, "4.0"), Option("out", str),
    )),
    "bilinear": (_cmd_bilinear, "bilinear Jacobi-symbol sum benchmark", (
        Option("M", int, "128"), Option("N", int, "128"), Option("epsilon", finite_float, "0.05"),
        *_SEEDS, *_OUT,
    )),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of command alone when one is named."""
    parser = argparse.ArgumentParser(
        prog="congruence-lab",
        description="exact congruence counting, Gauss sums, and almost-prime points",
    )
    # a pruned parser still names every command in its usage line; the full
    # one keeps the default, which its "required" and "invalid choice"
    # errors call "command"
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (_, help_text, options) in _COMMANDS.items():
        if command not in (None, name):
            continue
        # unset flags stay off the namespace, so resolve() sees what was given
        p = sub.add_parser(name, help=help_text, description=help_text,
                           argument_default=argparse.SUPPRESS)
        p.add_argument("--config", help="key = value file of this command's options;"
                                        " flags win over it")
        for o in options:
            note = "required" if o.required else (o.default and f"default: {o.default}")
            if o.kind is bool:
                p.add_argument(f"--{o.name}", action="store_const", const=True, help=note)
            else:
                p.add_argument(f"--{o.name}", type=o.kind, choices=o.choices, help=note)
    return parser


def resolve(args: argparse.Namespace) -> argparse.Namespace:
    """Every option of args.command, from its flag, else its config key,
    else its default.  Refuses config keys the command does not declare,
    missing required options, --format or --timings without --out and an
    --out whose directory does not exist."""
    _, _, options = _COMMANDS[args.command]
    given = vars(args)
    cfg = load_config(given["config"]) if "config" in given else {}
    declared = {o.name for o in options}
    for key in cfg:
        if key not in declared:
            raise ValueError(f"config key {key!r} is not an option of {args.command}")
    values = {}
    for o in options:
        if o.dest in given:
            values[o.dest] = given[o.dest]
        elif o.name in cfg:
            values[o.dest] = o.from_config(cfg[o.name])
        elif o.required:
            raise ValueError(f"missing required option --{o.name}")
        else:
            values[o.dest] = None if o.default is None else o.convert(o.default)
    out = values.get("out")
    for name in ("format", "timings"):
        if out is None and (name in given or name in cfg):
            raise ValueError(f"--{name} applies only with --out")
    if out is not None and not os.path.isdir(os.path.dirname(out) or "."):
        raise ValueError(f"--out {out!r}: directory {os.path.dirname(out)!r} does not exist")
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # help, a missing command and an unknown one get the full parser
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        args = build_parser(command).parse_args(argv)
        handler, _, _ = _COMMANDS[args.command]
        return handler(resolve(args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
