"""Command-line entry point.

Every subcommand maps to one library call, echoes its parameters, and
emits a machine-readable JSON report (stdout, or --out FILE) plus a short
human summary on stderr.  Reports are byte-identical across reruns with
the same inputs, flags, and seed; wall-clock timings therefore live in a
sidecar manifest (FILE.manifest.json when --out is used, stderr
otherwise), never in the report.

Exit codes: 0 success/verified, 1 verification failure or bound
violation, 2 bad input or arguments, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction

from . import __version__
from .ambient import DIFFERENCE, PRODUCT, RATIO, SUM
from .bounds import (
    bfamily_size_upper,
    diffset_bounds,
    heritability_slice,
    plunnecke_audit,
    sidon_slice_audit,
    sumset_sidon_upper,
)
from .constructions import (
    fp_mult_example,
    geometric_sumproduct_example,
    hyperbola_family,
    linstrom_like,
    sidon_base,
)
from .counting import energy_k, energy_prime_k, rep_histogram
from .errors import (
    CapExceeded,
    OverflowBudgetExceeded,
    PreconditionFailed,
    SidonkitError,
    VerificationFailed,
)
from .groundset import parse_set, serialize_set
from .sidon import (
    BFamilyParams,
    dense_core_extract,
    extract_random,
    sid_k_exact,
    sid_k_greedy,
    verify_bfamily,
    verify_multiplicity,
)
from .structure import (
    StructureCertificate,
    as_fraction,
    energy_gap_decompose,
    popular_symmetry_set,
    rigid_structure,
    sum_product_pipeline,
    verify_certificate,
    verify_pipeline_report,
)

_MODES = {"diff": DIFFERENCE, "difference": DIFFERENCE, "sum": SUM,
          "product": PRODUCT, "prod": PRODUCT, "ratio": RATIO}


def _mode(name: str) -> str:
    try:
        return _MODES[name]
    except KeyError:
        raise argparse.ArgumentTypeError(f"unknown mode {name!r}")


def _fraction(text: str) -> Fraction:
    try:
        return as_fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _load(path: str, inputs: dict, parse=parse_set):
    """`parse` of the text of `path`, whose sha256 is recorded in `inputs`."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    inputs[path] = hashlib.sha256(text.encode()).hexdigest()
    return parse(text)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the JSON report here instead of stdout")
    parser = argparse.ArgumentParser(
        prog="sidonkit",
        description="Exact energies, Sidon-type extraction, structure "
                    "certificates, constructions, and bound audits.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    def add_cap(p):
        p.add_argument("--cap", type=int, default=40, help="element cap for exact searches")

    def add_seed(p):
        p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")

    p = add_parser("energy", help="k-th energy of a set")
    p.add_argument("--set", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", type=_mode, default=DIFFERENCE)

    p = add_parser("energy-prime", help="distinct-tuple energy")
    p.add_argument("--set", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--within-pairs-only", action="store_true")

    p = add_parser("histogram", help="representation-function histogram")
    p.add_argument("--set", required=True)
    p.add_argument("--right", help="right-hand set (defaults to --set)")
    p.add_argument("--mode", type=_mode, default=DIFFERENCE)
    p.add_argument("--full", action="store_true",
                   help="emit every entry regardless of support size")

    p = add_parser("verify", help="multiplicity / intersection-family check")
    p.add_argument("--set", required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--k", type=int,
                   help="with --k: check the (k, g) intersection family")
    p.add_argument("--mode", type=_mode, default=DIFFERENCE)

    p = add_parser("exact", help="exact maximum bounded-multiplicity subset")
    p.add_argument("--set", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", type=_mode, default=DIFFERENCE)
    add_cap(p)

    p = add_parser("greedy", help="randomized greedy subset")
    p.add_argument("--set", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", type=_mode, default=DIFFERENCE)
    add_seed(p)

    p = add_parser("extract", help="seeded random extraction with certified bound")
    p.add_argument("--set", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", type=_mode, default=DIFFERENCE)
    p.add_argument("--trials", type=int, default=20)
    add_seed(p)

    p = add_parser("dense-core", help="energy-dense core refinement")
    p.add_argument("--set", required=True)
    p.add_argument("--g", type=int, required=True)

    p = sub.add_parser("construct", help="explicit constructions")
    csub = p.add_subparsers(dest="construction", required=True)
    c = csub.add_parser("sidon", parents=[common])
    c.add_argument("--n", type=int, required=True, help="segment bound N")
    c.add_argument("--save-set")
    c = csub.add_parser("linstrom", parents=[common])
    c.add_argument("--g", type=int, required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--save-set")
    c = csub.add_parser("geometric", parents=[common])
    c.add_argument("--base", type=int, required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--k", type=int, default=1)
    c.add_argument("--save-set")
    c = csub.add_parser("hyperbola", parents=[common])
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--t", type=int, help="shift; omit to search all shifts")
    c.add_argument("--save-set")
    c = csub.add_parser("fpmult", parents=[common])
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--gamma-order", type=int, required=True)
    c.add_argument("--k", type=int, default=1)
    c.add_argument("--save-set")
    add_seed(c)

    p = add_parser("decompose", help="energy-gap decomposition certificate")
    p.add_argument("--set", required=True)
    p.add_argument("--delta", type=_fraction, default=Fraction(1, 4))
    p.add_argument("--eps", type=_fraction, default=Fraction(1, 16))

    p = add_parser("rigid", help="rigid-structure certificate")
    p.add_argument("--set", required=True)
    p.add_argument("--delta", type=_fraction, default=Fraction(1, 4))
    p.add_argument("--eps", type=_fraction, default=Fraction(1, 16))

    p = add_parser("popular-shifts", help="shifts with a popular intersection")
    p.add_argument("--set", required=True)
    p.add_argument("--theta", type=int, required=True)

    p = add_parser("pipeline", help="additive-vs-multiplicative extraction")
    p.add_argument("--set", required=True)
    p.add_argument("--eps", type=_fraction, default=Fraction(1, 16))
    p.add_argument("--variant", choices=["rigid", "popular"], default="rigid")
    p.add_argument("--lmax", type=int, default=6)
    p.add_argument("--trials", type=int, default=20)
    add_seed(p)

    p = sub.add_parser("bounds", help="closed-form bound evaluation")
    bsub = p.add_subparsers(dest="bound", required=True)
    b = bsub.add_parser("sumset", parents=[common])
    b.add_argument("--left", required=True)
    b.add_argument("--right", required=True)
    b.add_argument("--k", type=int, required=True)
    b.add_argument("--sigma", type=int, default=1)
    b.add_argument("--target", help="set A to verify the sigma hypothesis against")
    add_cap(b)
    b = bsub.add_parser("diffset", parents=[common])
    b.add_argument("--set", required=True)
    b.add_argument("--k", type=int, required=True)
    b = bsub.add_parser("size", parents=[common])
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--k", type=int, required=True)
    b.add_argument("--g", type=int, required=True)
    b.add_argument("--setting", choices=["finite-group", "segment"], required=True)

    p = add_parser("heritability", help="slice heritability checks")
    p.add_argument("--set", required=True)
    p.add_argument("--mode", choices=["slices", "general"], default="slices")
    p.add_argument("--shift-set", action="append", default=[],
                   help="shift-set file (repeatable; general mode)")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--g", type=int, default=2)

    p = add_parser("audit-plunnecke", help="iterated-sumset growth audit")
    p.add_argument("--set", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)

    p = add_parser("verify-certificate",
                       help="recompute every statistic of a stored certificate")
    p.add_argument("--set", required=True)
    p.add_argument("--cert", required=True)

    return parser


def _dispatch(args, inputs: dict) -> tuple[dict, int, str]:
    """Returns (result, exit_code, one-line summary)."""
    sc = args.subcommand
    A = _load(args.set, inputs) if getattr(args, "set", None) else None
    if sc == "energy":
        rep = energy_k(A, args.k, args.mode)
        return rep.to_dict(), 0, f"E_{args.k} = {rep.value} (kappa = {rep.kappa})"
    if sc == "energy-prime":
        value = energy_prime_k(A, args.k, within_pairs_only=args.within_pairs_only)
        return {"k": args.k, "value": value}, 0, f"distinct-tuple energy = {value}"
    if sc == "histogram":
        B = _load(args.right, inputs) if args.right else A
        hist = rep_histogram(A, B, args.mode, skip_noninvertible=True)
        cap = 10**9 if args.full else 10_000
        return hist.to_dict(max_entries=cap), 0, \
            f"support {hist.support_size}, pairs {hist.total_pairs}"
    if sc == "verify":
        if args.k is not None:
            witness = verify_bfamily(A, BFamilyParams(args.k, args.g))
        else:
            witness = verify_multiplicity(A, args.g, args.mode)
        if witness is None:
            return {"ok": True}, 0, "verified"
        return {"ok": False, "witness": witness.to_dict()}, 1, "violation found"
    if sc == "exact":
        size, witness = sid_k_exact(A, args.k, args.mode, cap=args.cap)
        return {"size": size, "witness": witness.to_dict()}, 0, f"maximum size {size}"
    if sc == "greedy":
        S = sid_k_greedy(A, args.k, args.mode, seed=args.seed)
        return {"size": len(S), "subset": S.to_dict()}, 0, f"greedy size {len(S)}"
    if sc == "extract":
        res = extract_random(A, args.k, args.mode, seed=args.seed, trials=args.trials)
        code = 0 if res.verified else 1
        return res.to_dict(), code, f"extracted {len(res.subset)} elements (bound {res.bound})"
    if sc == "dense-core":
        core, rep = dense_core_extract(A, args.g)
        return {"core": core.to_dict(), "report": rep}, 0, \
            f"core size {len(core)}, floor holds: {rep['floor_holds']}"
    if sc == "construct":
        return _construct(args)
    if sc == "decompose":
        cert = energy_gap_decompose(A, args.delta, args.eps)
        return cert.to_json_dict(), 0, f"certificate variant: {cert.variant}"
    if sc == "rigid":
        cert = rigid_structure(A, args.delta, args.eps)
        return cert.to_json_dict(), 0, f"certificate variant: {cert.variant}"
    if sc == "popular-shifts":
        T = popular_symmetry_set(A, args.theta)
        return {"size": len(T), "shifts": T.to_dict()}, 0, f"{len(T)} popular shifts"
    if sc == "pipeline":
        rep = sum_product_pipeline(A, eps=args.eps, seed=args.seed,
                                   trials=args.trials, core_variant=args.variant,
                                   l_max=args.lmax)
        code = 0 if rep.verified else 1
        return rep.to_json_dict(), code, \
            f"{rep.branch}: subset {len(rep.subset)} vs ceil(sqrt|A|) = {rep.sqrt_target}"
    if sc == "bounds":
        return _bounds(args, A, inputs)
    if sc == "heritability":
        if args.mode == "slices":
            rep = sidon_slice_audit(A)
        else:
            shift_sets = [_load(path, inputs) for path in args.shift_set]
            rep = heritability_slice(A, shift_sets, args.k, args.g)
        code = 0 if rep.verdict == "holds" else 1
        return rep.to_dict(), code, f"heritability: {rep.verdict}"
    if sc == "audit-plunnecke":
        rep = plunnecke_audit(A, args.n, args.m)
        code = 0 if rep.verdict == "holds" else 1
        return rep.to_dict(), code, \
            f"|{args.n}A-{args.m}A| = {rep.measured} vs bound {float(rep.bound):.3f}"
    if sc == "verify-certificate":
        obj = _load(args.cert, inputs, json.loads)
        while isinstance(obj, dict) and "result" in obj and "kind" not in obj:
            obj = obj["result"]
        if not isinstance(obj, dict):
            raise ValueError(f"{args.cert}: a certificate is a JSON object")
        if obj.get("kind") == "pipeline-report":
            issues = verify_pipeline_report(A, obj)
        else:
            issues = verify_certificate(A, StructureCertificate.from_json_dict(obj))
        code = 0 if not issues else 1
        return {"ok": not issues, "mismatches": issues}, code, \
            ("certificate verifies" if not issues else f"{len(issues)} mismatches")
    raise SidonkitError(f"unhandled subcommand {sc!r}")


def _construct(args) -> tuple[dict, int, str]:
    kind = args.construction
    if kind == "sidon":
        S = sidon_base(args.n)
        ok = verify_multiplicity(S, 1) is None
        result = {"set": S.to_dict(), "size": len(S), "sidon_verified": ok}
        report, code, note = result, 0 if ok else 1, f"Sidon base of size {len(S)}"
        saved = S
    else:
        if kind == "linstrom":
            rep = linstrom_like(args.g, args.n)
        elif kind == "geometric":
            rep = geometric_sumproduct_example(args.base, args.n, k=args.k)
        elif kind == "hyperbola":
            rep = hyperbola_family(args.p, args.k, t=args.t)
        else:
            rep = fp_mult_example(args.p, args.gamma_order, seed=args.seed, k=args.k)
        report = rep.to_dict()
        code = 1 if rep.status == "fail" else 0
        note = f"{rep.name}: status {rep.status}, size {len(rep.output)}"
        saved = rep.output
    if getattr(args, "save_set", None):
        with open(args.save_set, "w", encoding="utf-8") as fh:
            fh.write(serialize_set(saved, fmt="json"))
    return report, code, note


def _bounds(args, A, inputs) -> tuple[dict, int, str]:
    if args.bound == "sumset":
        B = _load(args.left, inputs)
        C = _load(args.right, inputs)
        target = _load(args.target, inputs) if args.target else None
        rep = sumset_sidon_upper(B, C, args.k, sigma=args.sigma, A=target,
                                 exact_cap=args.cap)
    elif args.bound == "diffset":
        rep = diffset_bounds(A, args.k)
    else:
        rep = bfamily_size_upper(args.n, args.k, args.g, args.setting)
    code = 1 if rep.verdict == "violated" else 0
    return rep.to_dict(), code, f"{rep.name}: {float(rep.bound):.3f} ({rep.verdict})"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    inputs: dict = {}
    t0 = time.monotonic()
    try:
        result, code, note = _dispatch(args, inputs)
    except (CapExceeded, OverflowBudgetExceeded) as exc:
        print(f"error (budget): {exc}", file=sys.stderr)
        return 3
    except (PreconditionFailed, VerificationFailed) as exc:
        print(f"error (verification): {exc}", file=sys.stderr)
        return 1
    except SidonkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wall_ms = int((time.monotonic() - t0) * 1000)
    params = {k: _param_value(v) for k, v in vars(args).items()
              if k not in ("out",) and v is not None}
    seed = vars(args).get("seed")  # None where the subcommand takes no --seed
    report = {
        "format_version": 1,
        "tool": "sidonkit",
        "version": __version__,
        "subcommand": args.subcommand,
        "parameters": params,
        "inputs": inputs,
        "seed": seed,
        "result": result,
    }
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    manifest = {
        "tool": "sidonkit",
        "version": __version__,
        "subcommand": args.subcommand,
        "parameters": params,
        "inputs": inputs,
        "seed": seed,
        "wall_time_ms": wall_ms,
        "output": args.out,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        with open(args.out + ".manifest.json", "w", encoding="utf-8") as fh:
            fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(text)
    print(f"[sidonkit {args.subcommand}] {note} ({wall_ms} ms)", file=sys.stderr)
    return code


def _param_value(v):
    if isinstance(v, Fraction):
        return str(v)
    return v


if __name__ == "__main__":
    sys.exit(main())
