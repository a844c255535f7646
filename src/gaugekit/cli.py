"""Command line front end.

Subcommands: decompose, flux, xray, radon, kernel {build,gauge,compare,solve},
classify, reconstruct, report. Exit codes: 0 when a verdict or result was
reached (including not-equivalent), 2 when the answer is ambiguous, 1 on
errors.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .angular import AngularFunction
from .errors import GaugekitError
from .fields import GaugeElement, PotentialConfig, decompose_transversal
from .scattering import (
    ScatteringKernel,
    apply_gauge_to_kernel,
    assemble_kernel,
    gauge_equivalence_solver,
    kernel_distance,
)
from .tomography import Sinogram, forward_sinogram, parallel_geometry, \
    radon_invert_scalar, recover_field_2d
from .pipeline import Report, Scenario, emit_report, run_scenario

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_AMBIGUOUS = 2


def _triples(text: str | None):
    if not text:
        return None
    return AngularFunction.from_triples(json.loads(text))


def _load_config(path: str) -> PotentialConfig:
    return PotentialConfig.from_json(Path(path).read_text())


def _save_kernel(kernel: ScatteringKernel, prefix: str) -> None:
    Path(f"{prefix}.json").write_text(json.dumps(kernel.header_dict(), indent=2))
    kernel.remainder_to_csv(f"{prefix}_remainder.csv")


def _load_kernel(prefix: str) -> ScatteringKernel:
    header = json.loads(Path(f"{prefix}.json").read_text())
    remainder = ScatteringKernel.remainder_from_csv(f"{prefix}_remainder.csv")
    return ScatteringKernel.from_header_and_grid(header, remainder)


# ---------------- subcommand handlers ----------------

def cmd_decompose(args) -> int:
    if not (args.profile or args.config):
        raise ValueError("decompose needs --profile or --config")
    if args.profile:
        from .fields import TransversalField
        field = TransversalField.from_profile(_triples(args.profile))
    else:
        cfg = _load_config(args.config)
        if cfg.transversal is None:
            print("configuration has no transversal part", file=sys.stderr)
            return EXIT_ERROR
        field = cfg.transversal
    dec = decompose_transversal(field)
    out = {"alpha": dec.alpha, "a0": dec.a0.to_triples()}
    print(f"flux alpha = {dec.alpha:.12g}")
    print(f"gradient part coefficients: {json.dumps(out['a0'])}")
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=2))
    return EXIT_OK


def cmd_flux(args) -> int:
    cfg = _load_config(args.config)
    if cfg.transversal is None:
        print("flux = 0 (no transversal part)")
        return EXIT_OK
    from .fields import flux as loop_flux
    value = loop_flux(cfg, circle_radius=args.radius)
    print(f"flux = {value:.12g}")
    return EXIT_OK


def cmd_xray(args) -> int:
    cfg = _load_config(args.config)
    angles, offsets = parallel_geometry(args.n_angles, args.n_offsets,
                                        args.r_min, args.r_max)
    sino = forward_sinogram(cfg, angles, offsets, kind=args.kind)
    sino.to_csv(args.out)
    print(f"wrote {args.out}: {args.n_angles} angles x {args.n_offsets} offsets ({args.kind})")
    return EXIT_OK


def cmd_radon(args) -> int:
    sino = Sinogram.from_csv(args.sinogram, kind=args.kind)
    if args.kind == "scalar":
        rec = radon_invert_scalar(sino)
    else:
        rec = recover_field_2d(sino)
    rec.to_csv(args.out)
    print(f"wrote {args.out}: {rec.values.shape[0]} radii x {rec.values.shape[1]} angles"
          f" (dropped harmonics: {rec.dropped_harmonics})")
    return EXIT_OK


def cmd_kernel_build(args) -> int:
    phase = _triples(args.phi_coeffs)
    kernel = assemble_kernel(args.alpha, a0_in=phase, a0_out=phase,
                             n_grid=args.grid, lam=args.lam, winding=args.m)
    _save_kernel(kernel, args.out)
    print(f"wrote {args.out}.json / {args.out}_remainder.csv"
          f" (flux {kernel.effective_flux():.6g}, grid {kernel.n_grid})")
    return EXIT_OK


def cmd_kernel_gauge(args) -> int:
    kernel = _load_kernel(args.kernel)
    g = GaugeElement(dimension=2, m=args.m, phi=_triples(args.phi_coeffs))
    gauged = apply_gauge_to_kernel(kernel, g)
    _save_kernel(gauged, args.out)
    print(f"wrote {args.out}.json (flux {gauged.effective_flux():.6g})")
    return EXIT_OK


def cmd_kernel_compare(args) -> int:
    k1, k2 = _load_kernel(args.kernel1), _load_kernel(args.kernel2)
    d = kernel_distance(k1, k2)
    print(f"kernel distance = {d:.6e}")
    return EXIT_OK


def cmd_kernel_solve(args) -> int:
    k1, k2 = _load_kernel(args.kernel1), _load_kernel(args.kernel2)
    res = gauge_equivalence_solver(k1, k2)
    print(f"verdict: {res.verdict}")
    if res.gauge is not None:
        phi = res.gauge.phi.to_triples() if res.gauge.phi is not None else []
        print(f"gauge: m = {res.gauge.m}, phi = {json.dumps(phi)}")
    if res.reason:
        print(f"reason: {res.reason}")
    if res.witness:
        print(f"witness: {json.dumps(res.witness, default=float)}")
    return EXIT_AMBIGUOUS if res.verdict == "ambiguous" else EXIT_OK


def _run_scenario_command(args, expected_kind: str) -> int:
    scenario = Scenario.load(args.scenario)
    if scenario.kind != expected_kind:
        print(f"scenario kind is {scenario.kind!r}, expected {expected_kind!r}",
              file=sys.stderr)
        return EXIT_ERROR
    report = run_scenario(scenario)
    out_dir = args.out or scenario.output_dir or "."
    paths = emit_report(report, out_dir)
    print("\n".join(report.summary_lines()))
    print(f"wrote {len(paths)} files to {out_dir}")
    return EXIT_AMBIGUOUS if report.verdict == "ambiguous" else EXIT_OK


def cmd_classify(args) -> int:
    return _run_scenario_command(args, "classify")


def cmd_reconstruct(args) -> int:
    return _run_scenario_command(args, "reconstruct")


def cmd_report(args) -> int:
    report = Report.from_json(Path(args.report).read_text())
    print("\n".join(report.summary_lines()))
    return EXIT_OK


# ---------------- parser ----------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gaugekit",
                                description="flux decomposition, line-integral "
                                "tomography, and kernel gauge classification")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decompose", help="split a transversal profile into flux + gradient part")
    d.add_argument("--profile", help="JSON [[k,re,im],...] Fourier coefficients of the profile")
    d.add_argument("--config", help="configuration JSON file")
    d.add_argument("--out", help="write the decomposition JSON here")
    d.set_defaults(func=cmd_decompose)

    f = sub.add_parser("flux", help="loop-integral flux of a configuration")
    f.add_argument("--config", required=True)
    f.add_argument("--radius", type=float, default=2.0)
    f.set_defaults(func=cmd_flux)

    x = sub.add_parser("xray", help="forward line-integral sinogram")
    x.add_argument("--config", required=True)
    x.add_argument("--kind", choices=["scalar", "vector"], default="scalar")
    x.add_argument("--n-angles", type=int, default=180)
    x.add_argument("--n-offsets", type=int, default=256)
    x.add_argument("--r-min", type=float, default=1.001)
    x.add_argument("--r-max", type=float, default=3.5)
    x.add_argument("--out", required=True)
    x.set_defaults(func=cmd_xray)

    r = sub.add_parser("radon", help="invert a sinogram on the exterior annulus")
    r.add_argument("--sinogram", required=True)
    r.add_argument("--kind", choices=["scalar", "vector"], default="scalar")
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_radon)

    k = sub.add_parser("kernel", help="build, transform, and compare kernels")
    ksub = k.add_subparsers(dest="kernel_command", required=True)

    kb = ksub.add_parser("build", help="assemble a kernel from flux data")
    kb.add_argument("--alpha", type=float, required=True)
    kb.add_argument("--phi-coeffs", help="JSON [[k,re,im],...] Fourier coefficients of the phase")
    kb.add_argument("--m", type=int, default=0, help="winding of the phase")
    kb.add_argument("--grid", type=int, default=256)
    kb.add_argument("--lam", type=float, default=1.0)
    kb.add_argument("--out", required=True, help="output path prefix")
    kb.set_defaults(func=cmd_kernel_build)

    kg = ksub.add_parser("gauge", help="apply a gauge transform to a stored kernel")
    kg.add_argument("--kernel", required=True, help="input path prefix")
    kg.add_argument("--m", type=int, default=0)
    kg.add_argument("--phi-coeffs")
    kg.add_argument("--out", required=True)
    kg.set_defaults(func=cmd_kernel_gauge)

    kc = ksub.add_parser("compare", help="distance between two stored kernels")
    kc.add_argument("--kernel1", required=True)
    kc.add_argument("--kernel2", required=True)
    kc.set_defaults(func=cmd_kernel_compare)

    ks = ksub.add_parser("solve", help="decide gauge equivalence of two kernels")
    ks.add_argument("--kernel1", required=True)
    ks.add_argument("--kernel2", required=True)
    ks.set_defaults(func=cmd_kernel_solve)

    c = sub.add_parser("classify", help="run a classify scenario")
    c.add_argument("--scenario", required=True)
    c.add_argument("--out")
    c.set_defaults(func=cmd_classify)

    rc = sub.add_parser("reconstruct", help="run a reconstruct scenario")
    rc.add_argument("--scenario", required=True)
    rc.add_argument("--out")
    rc.set_defaults(func=cmd_reconstruct)

    rp = sub.add_parser("report", help="print a stored report")
    rp.add_argument("--report", required=True)
    rp.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GaugekitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
