"""Command line entry point.

Subcommands: synthesize, simulate, check-separable, random-state,
bench-fidelity, bench-cost.  Exit codes: 0 success, 1 domain error
(e.g. non-separable input under --strict), 2 I/O or parse error.
Machine-readable output goes to stdout or files; diagnostics to stderr.
``synthesize`` and ``check-separable`` read n and ell from the target state file.
Options must be spelled out in full: ``--n`` is not read as ``--normalize``.
``simulate --input`` takes a state JSON file or ``basis:BITS`` on the system
wires; ``bench-fidelity --n-max 15 --states 200`` is the paper's scale.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings

from . import analysis, circuit, experiments, simulator, synthesis
from .core import StateVector, build_partition_tree


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_state(path: str, normalize: bool = False) -> StateVector:
    with open(path) as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise circuit.ParseError(f"invalid JSON in {path}: {exc.msg}",
                                 exc.lineno, exc.colno) from exc
    try:
        return StateVector.from_json_dict(data, normalize=normalize)
    except circuit.ParseError as exc:
        raise circuit.ParseError(f"bad state in {path}: {exc}") from exc


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _cmd_synthesize(args) -> int:
    psi = _load_state(args.input, normalize=args.normalize)
    config = synthesis.SynthesisConfig(n=psi.n, k=args.k, mode=args.mode)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        circ = synthesis.synthesize_full(psi, config)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    if args.strict and not circ.metadata["separable"]:
        return _fail(1, "input is not leaf-separable (strict mode)")
    _write(args.out, circuit.export_text(circ))
    return 0


def _cmd_simulate(args) -> int:
    with open(args.circuit) as fh:
        circ = circuit.parse_text(fh.read())
    if args.input is None:
        initial = None
    elif args.input.startswith("basis:"):
        bits = args.input[len("basis:"):]
        if len(bits) != circ.n_system or set(bits) - {"0", "1"}:
            return _fail(2, f"bad basis string {bits!r} for {circ.n_system} wires")
        initial = StateVector.basis(circ.n_system, bits)
    else:
        initial = _load_state(args.input)
    target = _load_state(args.target) if args.target else None
    result = simulator.simulate(circ, initial=initial, target=target)
    report = {
        "fidelity": result.fidelity,
        "purity": result.purity if result.purity is not None
        else simulator.system_purity(result.state, circ.n_system),
        "norm": result.norm,
        "wires": {"system": circ.n_system, "ancilla": circ.n_ancilla},
        "gates": len(circ),
        "simulated_gates": result.gates,
        "two_qubit_gates": circuit.cost(circ).two_qubit_count,
        "elapsed": result.elapsed,
        "peak_support": result.peak_support,
        "first_dense_gate": result.first_dense_gate,
        "block_gates": result.block_gates,
    }
    _write(args.report, json.dumps(report, indent=2) + "\n")
    return 0


def _cmd_check_separable(args) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0):
        return _fail(2, f"--tol must be finite and non-negative, got {args.tol}")
    psi = _load_state(args.input, normalize=args.normalize)
    tree = build_partition_tree(psi.n, args.k)
    report = analysis.is_leaf_separable(psi, tree, tol=args.tol)
    _write(args.out, json.dumps(report.to_json_dict(), indent=2) + "\n")
    return 1 if args.strict and not report.separable else 0


def _cmd_random_state(args) -> int:
    if args.mixed:
        psi = experiments.random_mixed_leaf_separable(args.n, args.k, args.field,
                                                      seed=args.seed)
    else:
        ell = args.ell if args.ell is not None else max(1, args.n // 2)
        psi = experiments.random_leaf_separable(args.n, args.k, ell, args.field,
                                                seed=args.seed)
    _write(args.out, psi.dumps() + "\n")
    return 0


def _k_values(text: str) -> tuple[int, ...] | None:
    """bench-fidelity's ``--k``: one leaf size, or "all" for every k in 1..ceil(n/2)."""
    try:
        return None if text == "all" else (int(text),)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'all', got {text!r}") from None


def _cmd_bench_fidelity(args) -> int:
    config = experiments.ExperimentConfig(
        n_values=tuple(range(args.n_min, args.n_max + 1)), k_values=args.k, ell=args.ell,
        states_per_cell=args.states, seed=args.seed, kind=args.field,
        modes=tuple(args.modes.split(",")))
    if not any(config.cells()):
        return _fail(1, f"--k {args.k[0] if args.k else 'all'} leaves no (n, k) cell with "
                        f"k <= n for n in [{args.n_min}, {args.n_max}]")
    rows = experiments.run_fidelity_sweep(config)
    _write(args.out, experiments.rows_to_csv(rows, experiments.FIDELITY_CSV_HEADER))
    return 0


def _cmd_bench_cost(args) -> int:
    rows = experiments.run_cost_sweep(tuple(range(args.n_min, args.n_max + 1)), args.seed)
    _write(args.out, experiments.rows_to_csv(rows, experiments.COST_CSV_HEADER))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leafsep", allow_abbrev=False,
        description="Synthesize, simulate and benchmark leaf-separable state "
                    "preparation circuits.")
    subparsers = parser.add_subparsers(dest="command", required=True)
    add = functools.partial(subparsers.add_parser, allow_abbrev=False)

    p = add("synthesize", help="compile a target state (n, ell read from it)")
    p.add_argument("--input", required=True, help="target state JSON file")
    p.add_argument("--k", type=int, required=True, help="leaf size, in [1, n]")
    p.add_argument("--mode", choices=("free", "ancilla"), default="free")
    p.add_argument("--normalize", action="store_true",
                   help="normalize the input state first")
    p.add_argument("--strict", action="store_true",
                   help="fail with exit code 1 on non-separable input")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_synthesize)

    p = add("simulate", help="run a circuit on the statevector simulator")
    p.add_argument("--circuit", required=True)
    p.add_argument("--input", default=None,
                   help="state JSON or basis:BITSTRING (default all zeros)")
    p.add_argument("--target", default=None, help="target state JSON for fidelity")
    p.add_argument("--report", default="-")
    p.set_defaults(func=_cmd_simulate)

    p = add("check-separable",
            help="compare the target (n read from it) with the compiled state")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True, help="leaf size, in [1, n]")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="bound on the per-amplitude error of the compiled state")
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_check_separable)

    p = add("random-state", help="sample a random leaf-separable state")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--field", choices=("real", "complex"), default="real")
    p.add_argument("--seed", type=int, default=0)
    weight = p.add_mutually_exclusive_group()
    weight.add_argument("--ell", type=int, default=None)
    weight.add_argument("--mixed", action="store_true",
                        help="superpose weights 0..n/2 instead of one fixed weight")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_random_state)

    p = add("bench-fidelity", help="fidelity sweep CSV",
            description="Fidelity sweep CSV.  The paper's scale is --n-max 15 --states 200.")
    p.add_argument("--n-min", type=int, default=4)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--k", type=_k_values, default="all")
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--states", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--field", choices=("real", "complex"), default="real")
    p.add_argument("--modes", default="free")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_bench_fidelity)

    p = add("bench-cost", help="worst-case gate count CSV")
    p.add_argument("--n-min", type=int, default=4)
    p.add_argument("--n-max", type=int, default=14)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_bench_cost)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        return _fail(2, f"cannot open {exc.filename}")
    except circuit.ParseError as exc:
        return _fail(2, str(exc))
    except ValueError as exc:
        return _fail(1, str(exc))


if __name__ == "__main__":
    sys.exit(main())
