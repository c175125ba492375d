"""Command-line front end: analyze, sweep, design, oracle."""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time

from .core import NumericConfig, Potential, lambda_to_z, load_potential
from .design import (
    alternating_potential,
    amplify_to_full_bound,
    choose_epsilon,
    extend_with_epsilon,
    inverse_b2,
    inverse_b3,
    shrink_to_no_bound,
)
from .errors import InconsistentRootsError, LatticeJostError, TrailingZeroError
from .jost import _rouche_margin, jost_coefficients
from .oracle import match_energies, oracle_bound_states
from .report import analyze
from .spectrum import _bound_state_count, bound_state_scan

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VERDICT = 3
EXIT_PIPE = 1  # standard output closed before the command finished writing

SWEEP_HEADER = ["b", "N", "min_edge_distance", "precision", "ms"]


def _add_flags(sub: argparse.ArgumentParser, precision: bool = True) -> None:
    """The output flags, after --precision when the command reads it."""
    if precision:
        sub.add_argument("--precision", choices=("std", "ext"), default="std")
    sub.add_argument("--out", type=str, default=None)
    sub.add_argument("--quiet", action="store_true")


def _config_from(args: argparse.Namespace) -> NumericConfig:
    """The NumericConfig of --precision, standard for a command without it."""
    ext = getattr(args, "precision", "std") == "ext"
    return NumericConfig.extended() if ext else NumericConfig()


def _emit(text: str, args: argparse.Namespace) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    elif not args.quiet:
        print(text)


def _parse_roots(raw: str) -> list[complex]:
    """Comma-separated roots; a trailing i marks the imaginary part, as j does."""
    toks = [tok.strip() for tok in raw.split(",") if tok.strip()]
    return [complex(tok[:-1] + "j" if tok.endswith("i") else tok) for tok in toks]


_SIGNS = {"+": 1, "+1": 1, "1": 1, "-": -1, "-1": -1}


def _parse_signs(raw: str) -> list[int]:
    tokens = [tok.strip() for tok in raw.split(",")]
    bad = [tok for tok in tokens if tok not in _SIGNS]
    if bad:
        raise ValueError(f"sign pattern entries must be + or -, got {bad[0]!r}")
    return [_SIGNS[tok] for tok in tokens]


def cmd_analyze(args: argparse.Namespace, cfg: NumericConfig) -> int:
    try:
        pot = load_potential(args.potential)
    except (LatticeJostError, ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        rep = analyze(pot, cfg)
    except LatticeJostError as exc:
        print(f"numerical diagnostic: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    _emit(rep.to_json(include_timing=not args.no_timing), args)
    return EXIT_OK if rep.verdicts.all_theorems_hold else EXIT_VERDICT


def _sweep_row(b: int, amplitude: float, cfg: NumericConfig):
    t0 = time.perf_counter()
    roots = bound_state_scan(alternating_potential(b, amplitude), cfg)
    dist = min((min(abs(r - 1), abs(r + 1)) for r in roots), default=math.nan)
    ms = (time.perf_counter() - t0) * 1e3
    return len(roots), float(dist), ms


def cmd_sweep(args: argparse.Namespace, cfg: NumericConfig) -> int:
    if args.bmax < 1:
        print("input error: --bmax must be at least 1", file=sys.stderr)
        return EXIT_INPUT
    if not (math.isfinite(args.amplitude) and args.amplitude != 0):
        print(f"input error: --amplitude must be finite and nonzero, got {args.amplitude}",
              file=sys.stderr)
        return EXIT_INPUT
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(SWEEP_HEADER)
    failures = 0
    for b in range(1, args.bmax + 1):
        try:
            n, dist, ms = _sweep_row(b, args.amplitude, cfg)
        except LatticeJostError as exc:
            writer.writerow([b, -1, "nan", cfg.precision_mode, f"{0.0:.3f}"])
            print(f"row b={b} failed: {exc}", file=sys.stderr)
            failures += 1
            continue
        if n != b:
            failures += 1
        writer.writerow([b, n, f"{dist:.12g}", cfg.precision_mode, f"{ms:.3f}"])
    _emit(buf.getvalue().rstrip("\n"), args)
    return EXIT_VERDICT if failures else EXIT_OK


def cmd_design(args: argparse.Namespace, cfg: NumericConfig) -> int:
    try:
        if args.mode == "b2":
            roots = _parse_roots(args.roots)
            res = inverse_b2(roots)
            doc = {
                "V1": res.V1,
                "V2": res.V2,
                "consistency_residual": res.consistency_residual,
            }
        elif args.mode == "b3":
            res = inverse_b3(_parse_roots(args.roots))
            doc = {
                "V1": res.V1,
                "V2": res.V2,
                "V3": res.V3,
                "alpha5": res.alpha5,
                "residuals": list(res.residuals),
            }
        elif args.mode == "shrink":
            pot = load_potential(args.potential)
            t, scaled, p = shrink_to_no_bound(pot)
            n = sum(_bound_state_count(p))
            doc = {
                "t": t,
                "potential": list(scaled.values),
                "N": n,
                "small_coeff_certificate": n == 0,
            }
        elif args.mode == "amplify":
            A, pot, p = amplify_to_full_bound(_parse_signs(args.signs))
            doc = {
                "A": A,
                "potential": list(pot.values),
                "N": sum(_bound_state_count(p)),
                "rouche_margin": _rouche_margin(p),
            }
        elif args.mode == "extend":
            pot = load_potential(args.potential)
            if args.epsilon is None:
                eps, extension, p = choose_epsilon(pot, args.b)
            else:
                eps = args.epsilon
                extension = extend_with_epsilon(pot, args.b, eps)
                p = jost_coefficients(extension)
            doc = {
                "epsilon": eps,
                "potential": list(extension.values),
                "N": sum(_bound_state_count(p)),
            }
        else:  # pragma: no cover - argparse restricts choices
            return EXIT_INPUT
    except (ValueError, OSError, TrailingZeroError, InconsistentRootsError) as exc:
        print(f"design error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except LatticeJostError as exc:
        print(f"numerical diagnostic: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    _emit(json.dumps(doc, indent=2), args)
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace, cfg: NumericConfig) -> int:
    try:
        pot = load_potential(args.potential)
        if args.size <= pot.b:
            raise ValueError(f"--size {args.size} must exceed the support {pot.b}")
        if not args.alpha_filter > 0:
            raise ValueError(f"--alpha-filter must be positive, got {args.alpha_filter}")
    except (LatticeJostError, ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        rep = analyze(pot, cfg)
        filtered = [
            bs for bs in rep.bound_states if abs(bs.alpha) < args.alpha_filter
        ]
        # apply the same alpha cut to the oracle side, else a near-edge
        # bound state excluded from one list still shows up in the other
        oracle = [
            lam
            for lam in oracle_bound_states(pot, M=args.size)
            if abs(lambda_to_z(lam)) < args.alpha_filter
        ]
        rows = match_energies([bs.lam for bs in filtered], oracle)
    except (LatticeJostError, ValueError) as exc:
        print(f"oracle error: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    lines = ["root_lambda,oracle_lambda,delta"]
    deltas = []
    for lam, other, delta in rows:
        lines.append(f"{lam:.15g},{other:.15g},{delta:.6g}")
        if not math.isnan(delta):
            deltas.append(delta)
    max_delta = max(deltas) if deltas else 0.0
    lines.append(f"# max_delta={max_delta:.6g}")
    _emit("\n".join(lines), args)
    if len(filtered) != len(oracle):
        print(
            f"count mismatch: roots give {len(filtered)}, oracle gives {len(oracle)}",
            file=sys.stderr,
        )
        return EXIT_VERDICT
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="latticejost",
        description="Spectral analysis of the half-line lattice operator "
        "with compactly supported potential",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="full pipeline report for one potential")
    p_an.add_argument("potential", help="potential file (JSON array or one value per line) or inline JSON")
    p_an.add_argument("--no-timing", action="store_true", help="omit timing for byte-identical comparison")
    _add_flags(p_an)
    p_an.set_defaults(func=cmd_analyze)

    p_sw = sub.add_parser("sweep", help="bound-state count sweep over the alternating family")
    p_sw.add_argument("--amplitude", type=float, default=2.0)
    p_sw.add_argument("--bmax", type=int, required=True)
    _add_flags(p_sw)
    p_sw.set_defaults(func=cmd_sweep)

    p_de = sub.add_parser("design", help="constructive families and inverse problems")
    de_sub = p_de.add_subparsers(dest="mode", required=True)
    de_b2 = de_sub.add_parser("b2")
    de_b2.add_argument("--roots", required=True, help="three comma-separated roots")
    _add_flags(de_b2, precision=False)
    de_b3 = de_sub.add_parser("b3")
    de_b3.add_argument("--roots", required=True, help="four comma-separated roots")
    _add_flags(de_b3, precision=False)
    de_sh = de_sub.add_parser("shrink")
    de_sh.add_argument("--potential", required=True)
    _add_flags(de_sh, precision=False)
    de_am = de_sub.add_parser("amplify")
    de_am.add_argument("--signs", required=True, help="comma-separated +/- pattern")
    _add_flags(de_am, precision=False)
    de_ex = de_sub.add_parser("extend")
    de_ex.add_argument("--potential", required=True)
    de_ex.add_argument("--b", type=int, required=True)
    de_ex.add_argument("--epsilon", type=float, default=None)
    _add_flags(de_ex, precision=False)
    p_de.set_defaults(func=cmd_design)

    p_or = sub.add_parser("oracle", help="matrix-eigenvalue cross-check")
    p_or.add_argument("potential")
    p_or.add_argument("--size", type=int, default=800)
    p_or.add_argument("--alpha-filter", type=float, default=0.95,
                      help="exclude bound roots with |alpha| at or above this from comparison")
    _add_flags(p_or)
    p_or.set_defaults(func=cmd_oracle)

    return ap


# flags whose value is a comma list that may start with a minus sign
_LIST_FLAGS = ("--roots", "--signs")


def _join_list_flags(argv: list[str]) -> list[str]:
    """Rewrite ``--roots -0.5,...`` as ``--roots=-0.5,...``.

    argparse takes a separate value that starts with '-' for an option and
    stops with "expected one argument"; the joined form always parses.
    """
    out: list[str] = []
    tokens = iter(argv)
    for tok in tokens:
        value = next(tokens, None) if tok in _LIST_FLAGS else None
        out.append(tok if value is None else f"{tok}={value}")
    return out


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_join_list_flags(argv))
    try:
        code = args.func(args, _config_from(args))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away; point stdout at devnull so that the flush at
        # interpreter exit cannot raise again (as the Python signal docs advise)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except OSError as exc:  # --out names a file that cannot be written
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
