"""Command line front end.

Each subcommand declares its options once, in _COMMANDS: name, converter,
default or required, and allowed values; every option takes a value, and
none is a switch.  The argument parser, --help and config-file handling all
come from that table, so a subcommand accepts only its own options.  main
parses a plain argv (the command, then its own flags in full, each with a
valid value) by one walk over that table; argparse parses everything else
and words --help and every usage error.
Values come from flags or from a flat key=value config file (--config);
flags win over config values, which win over defaults.  A config key that
the subcommand does not declare, or one given twice, is refused; config
values pass the flags' conversion and choice checks.  Exit codes: 0
success, 2 a failed check or a cost estimate beyond the one budget pair
(the message names the precondition or option), 1 internal error.
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

from . import arith, averaged, congruence, dp6, gausssum, reports, sawtooth


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


# ---- converters: text -> value, ValueError on bad text, ArgumentTypeError out of range ----

def checked(kind: Callable[[str], object], ok: Callable, wording: str) -> Callable[[str], object]:
    """The converter kind(text), refused unless ok(value): wording states the range."""
    def convert(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {wording}, got {text!r}")
        return value

    convert.__name__ = kind.__name__  # errors on text kind() cannot read keep its wording
    return convert


# no float option has a meaning at nan or infinity, and JSON cannot hold such a value
finite_float = checked(float, math.isfinite, "a finite number")
positive_int = checked(int, lambda value: value >= 1, ">= 1")
nonzero_int = checked(int, bool, "nonzero")  # a coefficient a or b of a x + b y^2


def fraction(text: str) -> Fraction:
    """Fraction(text), refused when float() of it overflows: every rational
    option is also used as a float."""
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    try:
        float(value)
    except OverflowError:
        raise argparse.ArgumentTypeError(f"must be within float range, got {text!r}") from None
    return value


def int_list(text: str) -> list[int]:
    values = [int(part) for part in text.split(",") if part.strip()]
    if not values:
        raise ValueError(f"no integer in {text!r}")
    return values


def box_side(text: str) -> Fraction | None:
    """A count-scan box side: 'q' (None, the modulus itself) or a fixed rational >= 1."""
    side = None if text == "q" else fraction(text)
    if side is not None and side < 1:
        raise argparse.ArgumentTypeError(f"must be q or a rational >= 1, got {text!r}")
    return side


@dataclass(frozen=True)
class Option:
    """One option of one subcommand.  The default is the text a user would
    type and is converted like any flag value; None leaves the option unset."""

    name: str
    kind: Callable[[str], object]
    default: str | None = None
    required: bool = False
    choices: tuple[str, ...] | None = None

    @property
    def dest(self) -> str:
        return self.name.replace("-", "_")

    def from_config(self, text: str):
        try:
            value = self.kind(text)
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
_SEEDS = (Option("seed", int, "0"), Option("seeds", positive_int, "1"))


def _emit(o: argparse.Namespace, description: str, fields, rows) -> None:
    if o.out:
        count = reports.write_table(o.out, o.format, description, fields, [rows])
        print(f"wrote {count} rows to {o.out}")


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
    reps = congruence.scan_boxes([o.q], o.a, o.b, o.X, o.Y)
    if not reps:  # scan_boxes skipped the one modulus, before any count
        raise ValueError("a*b must be coprime to q")
    (rep,) = reps
    print(f"exact     = {rep.exact}")
    print(f"main_term = {rep.main_term!r}")
    print(f"envelope  = {rep.envelope!r}")
    print(f"ratio     = {rep.ratio!r}")
    _emit(o, "congruence box counts: exact vs main term and error envelope",
          congruence.CountReport._fields, reps)
    return 0


def _cmd_count_scan(o: argparse.Namespace) -> int:
    qs = arith.sieve_primes(o.primes_up_to) if o.q_list is None else o.q_list
    reps = congruence.scan_boxes(qs, o.a, o.b, o.x, o.y)
    if not reps:  # scan_boxes skipped every modulus, before any count
        raise ValueError(f"--a, --b: a*b = {o.a * o.b} shares a factor with every modulus q,"
                         f" so no box is left to count")
    counted = {r.q for r in reps}
    for q in qs:
        if q not in counted:
            print(f"skipping q={q}: a*b must be coprime to q", file=sys.stderr)
    del counted  # freed before the rows are made
    worst = max((r.ratio for r in reps), default=0.0)
    print(f"instances = {len(reps)}   max |exact - main|/envelope = {worst!r}")
    _emit(o, "congruence box counts: exact vs main term and error envelope",
          congruence.CountReport._fields, reps)
    return 0


_DRAW_CHUNK = 1 << 14  # doubles, or signs' words, per getrandbits call


def _mt_words(rng: random.Random, n: int) -> np.ndarray:
    """The next n 32-bit MT19937 outputs of rng, in order, as a uint32 array."""
    return np.frombuffer(rng.getrandbits(32 * n).to_bytes(4 * n, "little"), dtype="<u4")


def random_floats(seed: int, n: int) -> np.ndarray:
    """[random.Random(seed).random() for _ in range(n)] as one float64 array, bit
    for bit, without numpy.random: random() makes a double of the next two MT19937
    words w0, w1 as ((w0 >> 5) 2^26 + (w1 >> 6)) 2^-53, exact in uint64 and float64."""
    rng, out = random.Random(seed), np.empty(n)
    for lo in range(0, n, _DRAW_CHUNK):
        m = min(_DRAW_CHUNK, n - lo)
        words = _mt_words(rng, 2 * m).astype(np.uint64)
        out[lo : lo + m] = ((words[0::2] >> 5 << 26) + (words[1::2] >> 6)) * 2.0**-53
    return out


def random_signs(seed: int, n: int) -> np.ndarray:
    """[random.Random(seed).choice((-1, 1)) for _ in range(n)] as an int8
    array, bit for bit: choice((-1, 1)) is (-1, 1)[r], r the top two bits
    of the next 32-bit MT19937 output, drawn again while r >= 2."""
    rng, out, done = random.Random(seed), np.empty(n, dtype=np.int8), 0
    while done < n:
        m = min(_DRAW_CHUNK, 2 * (n - done) + 64)
        r = _mt_words(rng, m) >> 30
        r = r[r < 2][: n - done]
        out[done : done + r.size], done = r, done + r.size
    return 2 * out - 1


VAALER_FIELDS = ("H", "samples", "seed", "violations", "worst_slack")


def _cmd_vaaler(o: argparse.Namespace) -> int:
    xs = random_floats(o.seed, o.samples)
    violations, worst = sawtooth.majorant_slack(xs, o.H)
    print(f"H = {o.H}: {violations} violations in {o.samples} samples;"
          f" worst slack = {worst!r}")
    _emit(o, "sawtooth approximation: majorant violations at random points",
          VAALER_FIELDS, [(o.H, o.samples, o.seed, violations, worst)])
    return 0


AVERAGED_FIELDS = ("l", "m", "r", "s", "t", "U", "V", "W", "Y", "scheme", "seed", "H", "epsilon",
                   "S_re", "S_im", "M_re", "M_im", "first_O", "T_envelope", "ratio")


def _cmd_avg_scan(o: argparse.Namespace) -> int:
    fam = averaged.AveragedFamily(l=o.l, m=o.m, r=o.r, s=o.s, t=o.t, U=o.U, V=o.V, W=o.W,
                                  J=congruence.Interval(o.y0, o.Y),
                                  bounds=congruence.box_bounds(o.X), scheme=o.scheme)
    H = averaged.suggest_H(fam, o.epsilon) if o.H is None else o.H
    reps = averaged.avg_report(fam, H, o.epsilon, range(o.seed, o.seed + o.seeds))
    for rep in reps:
        print(f"seed {rep.seed}: |S - M| = {abs(rep.S - rep.M)!r}  "
              f"budget = {rep.first_O + rep.T_envelope!r}  ratio = {rep.ratio!r}")
    _emit(o, "averaged congruence sums: exact weighted sum vs main term vs budget",
          AVERAGED_FIELDS, [(fam.l, fam.m, fam.r, fam.s, fam.t, fam.U, fam.V, fam.W, fam.J.length,
                             fam.scheme, rep.seed, rep.H, rep.epsilon, rep.S.real, rep.S.imag,
                             rep.M.real, rep.M.imag, rep.first_O, rep.T_envelope, rep.ratio)
                            for rep in reps])
    return 0


def _cmd_dp6_enumerate(o: argparse.Namespace) -> int:
    # the checked int64 blocks stream to the writer, which counts them
    blocks = dp6.point_blocks(o.B, o.t)
    count = (reports.write_table(o.out, o.format,
                                 "almost-prime surface points from the q-window torsor family",
                                 dp6.POINT_FIELDS, blocks)
             if o.out else sum(len(block) for block in blocks))
    print(f"B = {o.B}, t = {o.t}: {count} points")
    if o.out:
        print(f"wrote {count} rows to {o.out}")
    return 0


def _cmd_dp6_growth(o: argparse.Namespace) -> int:
    rows = dp6.m_t_growth(o.B_list, o.t)
    for row in rows:
        print(f"B = {row.B:>12}  count = {row.count:>10}  "
              f"count*log(B)^5/B = {row.normalized!r}")
    _emit(o, "almost-prime point counts by budget with log-power normalization",
          dp6.GrowthRow._fields, rows)
    return 0


def _cmd_dp6_sieve(o: argparse.Namespace) -> int:
    report = dp6.sieve_condition_report(o.B, o.q, o.tau, o.c2, o.z_max, o.rho_max, o.t, o.mu)
    text = reports.json_dump(report)
    if o.out:
        reports.write_text(o.out, text)
        print(f"wrote sieve report to {o.out}")
    else:
        print(text, end="")
    return 0


BILINEAR_FIELDS = ("M", "N", "seed", "epsilon", "abs_sum", "bound", "ratio")


def _cmd_bilinear(o: argparse.Namespace) -> int:
    half = (o.M + 1) // 2
    # bilinear_jacobi's checks of epsilon at its M = 2 half - 1, made before any sign is drawn
    if o.epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    congruence.eps_power((2 * half - 1) * o.N, o.epsilon)
    seeds = range(o.seed, o.seed + o.seeds)
    # column s: seed s's (M+1)/2 signs a, then its N signs b
    signs = np.stack([random_signs(seed, half + o.N) for seed in seeds], axis=1)
    res = congruence.bilinear_jacobi(signs[:half], signs[half:], o.epsilon)
    rows = []
    for seed, value in zip(seeds, res.values.tolist()):
        abs_sum = float(abs(value))
        ratio = abs_sum / res.bound
        print(f"seed {seed}: |sum| = {abs_sum!r}  bound = {res.bound!r}  ratio = {ratio!r}")
        rows.append((res.M, res.N, seed, o.epsilon, abs_sum, res.bound, ratio))
    _emit(o, "bilinear Jacobi-symbol sums vs cancellation benchmark", BILINEAR_FIELDS, rows)
    return 0


# ---- admission: one budget pair for every command ----

# resolve refuses, before any work, an argv whose estimated run time (steps times
# ns per step) or peak bytes exceeds a budget (README, "Admission").
BUDGET_SECONDS, BUDGET_BYTES = 30.0, 1 << 30


def _primes_upto(x) -> float:  # >= pi(x) (Rosser and Schoenfeld)
    return 1.26 * x / math.log(x) if x > 2 else 1.0


def _estimate(command: str, o: argparse.Namespace) -> tuple[float, float]:
    """(steps, peak bytes) of command at its resolved options o; an input the
    command refuses may get any estimate, as either refusal precedes work."""
    if command == "gauss":  # the brute sum's u terms
        return o.u, 2**20
    if command == "count-scan":  # per q <= top a row, and a walk unless x = q
        n, top = ((len(o.q_list), max(o.q_list)) if o.q_list
                  else (_primes_upto(o.primes_up_to), o.primes_up_to))
        x, y = (0 if side is None else math.floor(side) for side in (o.x, o.y))
        walk = 4000 + min(top / 2, 32 * x if o.y is None else y) if x > 0 else 0
        return n * (4000 + walk), n * 2000 + (0 if o.q_list else top) + 2**20
    if command == "vaaler":  # H n screened terms, at worst all recomputed by row sums
        return o.samples * (3 + o.H), 88 * o.samples + 56 * o.H + 2**23
    if command == "avg-scan":  # each cell over the integers of J, then once per seed
        cells = math.prod(max(math.floor(2 * P) - math.floor(P), 0) for P in (o.U, o.V, o.W))
        return (cells * (math.floor(o.Y) + 201) + o.seeds * (cells + 3) * 150,
                200 * cells + 1000 * o.seeds + 2**23)
    if command == "dp6-growth":  # 0.6 B / log B cells per B, one Omega table
        a2 = dp6._alpha_bounds(max(*o.B_list, 0))[1]
        return sum(0.6 * B / math.log(B) for B in o.B_list if B > 2) + 2.5 * a2, 8 * a2 + 2**20
    if command == "dp6-sieve":  # sequence cells, a pass per d, rho per d, the W1 grid
        try:
            d = dp6._d_max(float(dp6._window_ratio(o.B, o.q)), o.tau, o.c2)
        except ValueError:  # refused by sieve_condition_report before any work
            return 0, 0
        a1, a2 = dp6._alpha_bounds(o.B)
        cells, ds = a1 * (a2 // o.q + 1), max(d, o.rho_max)
        return (20 * cells + d * (cells + 2000) + 2400 * ds + 3 * _primes_upto(o.z_max) ** 2,
                50 * cells + 500 * ds + 2**24)
    # bilinear: prime rows, about M^2 / (2 log M) steps, cells once and per seed, signs
    M, N, seeds = max(o.M, 3), o.N, o.seeds
    cells, signs = (M + 1) // 2 * N, ((M + 1) // 2 + N) * seeds
    return (4 * M * M / math.log(M) + cells * (5 + 2 * seeds) + 50 * signs + 25000 * seeds,
            9 * cells + 8 * M + 32 * signs + 400 * seeds + 2**20)


# name -> (handler, help, options, None or (what drives _estimate, ns per step))
_COMMANDS = {
    "gauss": (_cmd_gauss, "closed form vs direct quadratic Gauss sum", (
        _req("s", int), _req("t", int), _req("u", int),
    ), ("--u", 250)),
    "count": (_cmd_count, "one exact box count with main term and envelope", (
        _req("a", nonzero_int), _req("b", nonzero_int), _req("q", int),
        _req("X", fraction), _req("Y", fraction), *_OUT,
    ), None),
    "count-scan": (_cmd_count_scan, "box counts over a family of moduli", (
        Option("primes-up-to", checked(int, lambda value: value >= 2, ">= 2"), "100"),
        Option("q-list", int_list),
        Option("a", nonzero_int, "1"), Option("b", nonzero_int, "1"),
        Option("x", box_side, "q"), Option("y", box_side, "q"), *_OUT,
    ), ("--primes-up-to, --q-list, --x, --y", 10)),
    "vaaler": (_cmd_vaaler, "sawtooth approximation majorant check", (
        _req("H", checked(int, lambda H: 1 <= H <= sawtooth.MAX_SCREEN_H,
                          f">= 1 and <= {sawtooth.MAX_SCREEN_H}")),
        Option("samples", positive_int, "100000"), Option("seed", int, "0"), *_OUT,
    ), ("--H, --samples", 55)),
    "avg-scan": (_cmd_avg_scan, "averaged sums over dyadic coefficient families", (
        Option("l", int, "1"), Option("m", int, "1"), Option("r", int, "1"),
        Option("s", int, "1"), Option("t", int, "3"),
        Option("U", fraction, "1"), Option("V", fraction, "1"), Option("W", fraction, "1"),
        Option("y0", fraction, "0"), Option("Y", fraction, "8"), Option("X", fraction, "2"),
        Option("scheme", str, "joint", choices=averaged.SCHEMES),
        Option("H", finite_float), Option("epsilon", finite_float, "0.05"), *_SEEDS, *_OUT,
    ), ("--U, --V, --W, --Y, --seeds", 10)),
    "dp6-enumerate": (_cmd_dp6_enumerate, "almost-prime surface points", (
        _req("B", int), Option("t", int, "12"), *_OUT,
    ), None),
    "dp6-growth": (_cmd_dp6_growth, "almost-prime counts by budget", (
        Option("B-list", int_list, "10000,100000,1000000"), Option("t", int, "12"), *_OUT,
    ), ("--B-list", 8)),
    "dp6-sieve": (_cmd_dp6_sieve, "sieve condition report (JSON)", (
        Option("B", int, "1000"), Option("q", int, "7"),
        Option("tau", finite_float, "0.4"), Option("c2", finite_float, "1.0"),
        Option("z-max", int, "1000"), Option("rho-max", int, "30"),
        Option("t", int, "12"), Option("mu", finite_float, "4.0"), Option("out", str),
    ), ("--B, --q, --tau, --c2, --rho-max, --z-max", 5)),
    "bilinear": (_cmd_bilinear, "bilinear Jacobi-symbol sum benchmark", (
        Option("M", positive_int, "128"), Option("N", positive_int, "128"),
        Option("epsilon", finite_float, "0.05"),
        *_SEEDS, *_OUT,
    ), ("--M, --N, --seeds", 1)),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand; main runs it on what _plain_args
    leaves: help, usage errors, --flag=value, values with -.  A prefix of a
    flag is no flag: it is refused as an unrecognized argument."""
    parser = argparse.ArgumentParser(
        prog="congruence-lab",
        description="exact congruence counting, Gauss sums, and almost-prime points",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options, _) in _COMMANDS.items():
        # unset flags stay off the namespace, so resolve() sees what was given
        p = sub.add_parser(name, help=help_text, description=help_text,
                           argument_default=argparse.SUPPRESS, allow_abbrev=False)
        p.add_argument("--config", help="key = value file of this command's options;"
                                        " flags win over it")
        for o in options:
            note = "required" if o.required else (o.default and f"default: {o.default}")
            p.add_argument(f"--{o.name}", type=o.kind, choices=o.choices, help=note)
    return parser


# command -> "--name" -> its Option, --config included: the flags _plain_args takes
_FLAGS = {name: {f"--{o.name}": o for o in (Option("config", str), *options)}
          for name, (_, _, options, _) in _COMMANDS.items()}


def _plain_args(command: str, argv: list[str]) -> argparse.Namespace | None:
    """build_parser().parse_args(argv) for a plain argv: command, then its
    own flags in full, each with a value that converts, is one of its choices
    and does not start with -.  Else None, for argparse."""
    flags = _FLAGS[command]
    values = {"command": command}
    tokens = iter(argv[1:])
    for token in tokens:
        o = flags.get(token)
        if o is None:
            return None
        text = next(tokens, None)
        if text is None or text.startswith("-"):
            return None
        try:
            value = o.kind(text)
        except (ValueError, TypeError, argparse.ArgumentTypeError):
            return None
        if o.choices and value not in o.choices:
            return None
        values[o.dest] = value
    return argparse.Namespace(**values)


def resolve(args: argparse.Namespace) -> argparse.Namespace:
    """Every option of args.command, from its flag, else its config key,
    else its default.  Refuses config keys the command does not declare,
    missing required options, --format without --out, --primes-up-to with
    --q-list, an --out that is empty, is a directory or lies in a missing
    directory, and then an argv whose _estimate exceeds a budget."""
    _, _, options, cost = _COMMANDS[args.command]
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
            values[o.dest] = None if o.default is None else o.kind(o.default)
    out = values.get("out")
    named = {o.name for o in options if o.dest in given or o.name in cfg}
    if out is None and "format" in named:
        raise ValueError("--format applies only with --out")
    if {"primes-up-to", "q-list"} <= named:
        raise ValueError("--primes-up-to applies only without --q-list")
    if out == "":
        raise ValueError("--out is empty: it must name a file")
    if out is not None and os.path.isdir(out):
        raise ValueError(f"--out {out!r} is a directory: it must name a file")
    if out is not None and not os.path.isdir(os.path.dirname(out) or "."):
        raise ValueError(f"--out {out!r}: directory {os.path.dirname(out)!r} does not exist")
    o = argparse.Namespace(**values)
    if cost:
        drivers, ns = cost
        try:
            steps, size = map(float, _estimate(args.command, o))
        except OverflowError:  # a size beyond float range
            steps = size = math.inf
        if (seconds := steps * ns * 1e-9) > BUDGET_SECONDS or size > BUDGET_BYTES:
            raise ValueError(f"{drivers}: estimated {seconds:.3g} s and {size:.3g} bytes, over"
                             f" the budget of {BUDGET_SECONDS:g} s and {BUDGET_BYTES} bytes")
    return o


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        args = (command and _plain_args(command, argv)) or build_parser().parse_args(argv)
        handler = _COMMANDS[args.command][0]
        return handler(resolve(args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
