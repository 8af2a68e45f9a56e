"""Command-line surface: influence precomputation, attacks, ACDP aggregation,
and result verification.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 solver
configuration error, 4 empty-input analysis.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import math
import operator
import sys
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .acdp import abstract_path, relevance
from .engine import Scheduler, attack_result_to_json, check_pixels, normalize_domains, run_attack
from .influence import (
    DEFAULT_PERMUTATIONS,
    BackgroundSet,
    ConfigurationError,
    InfluenceMap,
    build_influence_map,
)
from .semantics import ModelConfigError, ModelSpec, concrete_label
from .solver import SAT, ExternalSolver, SolverError, SolverRequest

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_SOLVER_ERROR = 3
EXIT_EMPTY_ANALYSIS = 4


class InputError(Exception):
    """A file or an option the command cannot use: exit 2."""


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def _read_json(path, what: str, parse):
    """``parse`` of the JSON document at ``path``.  Any failure to open,
    decode or parse it is an InputError naming ``what``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(json.load(fh))
    except (OSError, ValueError, TypeError, KeyError, AttributeError) as exc:
        raise InputError(f"{what}: {exc}") from None


def _as_array(doc) -> np.ndarray:
    array = np.asarray(doc, dtype=float)
    if not np.isfinite(array).all():
        raise ValueError("entries must be finite numbers")
    return array


def _as_report(doc) -> dict:
    if not isinstance(doc, dict):
        raise TypeError("not a JSON object")
    return doc


def _distinct(flag: str, paths: Sequence[Path], key: Callable[[Path], object],
              clash: str) -> None:
    """InputError naming ``flag`` and both files when two of ``paths`` have
    one ``key``: they ``clash``."""
    seen: dict = {}
    for path in paths:
        first = seen.setdefault(key(path), path)
        if first is not path:
            raise InputError(f"{flag}: {first} and {path} {clash}")


def _json_files(flag: str, specs: Sequence[str]) -> list[Path]:
    """The files that ``specs``, the values of ``--<flag>``, name: a file as
    given, a directory as its ``*.json`` files in sorted order.  A spec that
    names nothing, a directory with no JSON file, or a file named twice (by
    its resolved path) is an InputError naming ``flag``."""
    paths: list[Path] = []
    for spec in specs:
        p = Path(spec)
        if not p.exists():
            raise InputError(f"{flag}: no such file or directory: {spec}")
        found = sorted(p.glob("*.json")) if p.is_dir() else [p]
        if not found:
            raise InputError(f"{flag}: no JSON file in {spec}")
        paths.extend(found)
    _distinct(flag, paths, Path.resolve, "are one file")
    return paths


def _write_manifest(out_dir: Path, args: argparse.Namespace, artifacts: list[Path]) -> None:
    """``manifest.json``: the command, its parsed options and each artifact
    with its SHA-256."""
    entries = []
    for path in sorted(artifacts):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        entries.append({"path": path.name, "sha256": digest})
    config = {name: value for name, value in vars(args).items() if name != "command"}
    doc = {"command": args.command, "config": config, "artifacts": entries}
    (out_dir / "manifest.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _default_pixels(imap: InfluenceMap, model: ModelSpec, count: int) -> list[int]:
    """Top-``count`` input neurons by influence (ties to the lower index)."""
    ranked = sorted((-val, int(np.ravel_multi_index(nid.index, model.shapes[0])))
                    for nid, val in imap.items() if nid.layer == 0)
    if len(ranked) < count:
        raise InputError(f"pixels: model has only {len(ranked)} input neurons")
    return [flat for _, flat in ranked[:count]]


class _Claim(NamedTuple):
    """A success report's flip, re-executed."""

    path: Path  # the report's file
    input: np.ndarray  # the seed with the adversarial values applied
    values: dict[int, float]  # the adversarial values by pixel index
    labels: tuple[int, int]  # original, flipped
    bounds: dict[int, tuple[float, float]]  # the attack's domain by pixel index
    label: int  # concrete_label of input

    @property
    def flips(self) -> bool:
        """The model labels ``input`` the claimed flipped label, which is not
        the original one."""
        original, flipped = self.labels
        return self.label == flipped != original


def _read_claim(path: Path, doc: dict, model: ModelSpec) -> _Claim:
    """The flip that success report ``doc`` of file ``path`` claims, read by
    the rules the attack wrote it under: a ``seed`` (a path or a list) of
    finite numbers that fits the model, labels in ``0..class_count - 1``,
    ``pixel_indices`` that ``check_pixels`` takes, a ``domain`` of one ``[lo,
    hi]`` pair per index that ``normalize_domains`` takes, and
    ``adversarial_values`` keyed ``p<index>`` by listed indices, each a finite
    number.  Anything else is an InputError naming ``path``."""
    where, field = f"reports: {path}", "seed"  # the field being read
    try:
        seed_ref = doc["seed"]
        seed = (_read_json(seed_ref, f"{where}: seed", _as_array) if isinstance(seed_ref, str)
                else _as_array(seed_ref)).reshape(model.shapes[0])
        field = "labels"
        labels = (operator.index(doc["original_label"]), operator.index(doc["flipped_label"]))
        if not all(0 <= label < model.class_count for label in labels):
            raise ValueError(f"{labels} are not all in 0..{model.class_count - 1}")
        field = "pixel_indices"
        pixels = check_pixels(doc["pixel_indices"], seed.size)
        field = "domain"
        if np.ndim(doc["domain"]) != 2:  # normalize_domains takes one pair for all too
            raise ValueError(f"{doc['domain']!r} is not one [lo, hi] pair per pixel index")
        bounds = dict(zip(pixels, normalize_domains(doc["domain"], len(pixels))))
        field, values = "adversarial_values", doc["adversarial_values"]
        names = {f"p{pixel}": pixel for pixel in pixels}
        if not values.keys() <= names.keys():
            raise ValueError(f"{sorted(values.keys() - names.keys())} are not p<index> of "
                             f"pixel_indices {list(pixels)}")
        claimed = dict(zip(map(names.get, values), _as_array(list(values.values())).tolist()))
    except KeyError as exc:
        raise InputError(f"{where}: missing field {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise InputError(f"{where}: {field}: {exc}") from None
    np.put(seed, list(claimed), list(claimed.values()))
    return _Claim(path, seed, claimed, labels, bounds, concrete_label(model, seed))


def _claims(specs: Sequence[str], model: ModelSpec) -> list[_Claim]:
    """The claim of each success report among the files ``--reports specs``
    names, re-executed; the manifest, ``acdp.json`` and the reports of other
    outcomes are skipped."""
    claims = []
    for path in _json_files("reports", specs):
        if path.name.startswith("manifest") or path.name == "acdp.json":
            continue
        doc = _read_json(path, f"reports: {path}", _as_report)
        if doc.get("outcome") == "success":
            claims.append(_read_claim(path, doc, model))
    return claims


def _build_influence(args: argparse.Namespace, model: ModelSpec, seed: np.ndarray
                     ) -> InfluenceMap:
    """The influence map of ``seed`` against ``--background``."""
    if not args.background:
        raise InputError("background: required unless --influence-map is given")
    background = _read_json(args.background, "background",
                            partial(BackgroundSet, seed=args.random_seed))
    return build_influence_map(model, background, seed, n_permutations=args.permutations)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_influence(args: argparse.Namespace, model: ModelSpec) -> int:
    imap = _build_influence(args, model, _read_json(args.seed_input, "seed-input", _as_array))
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "influence.json"
    imap.save(str(out_path))
    for layer, (count, lo, hi, mean) in imap.layer_summary().items():
        print(f"layer {layer}: {count} neurons  influence min {lo:.6g} "
              f"max {hi:.6g} mean {mean:.6g}")
    _write_manifest(out_dir, args, [out_path])
    print(f"wrote {out_path}")
    return EXIT_OK


def _attack_backend(command: str) -> ExternalSolver:
    backend = ExternalSolver(command)  # every request carries its own timeout
    try:  # pre-flight so a bad command fails the whole batch loudly
        verdict = backend.check(SolverRequest(variables=(), assertion=(), timeout_s=10.0))
    except SolverError as exc:
        raise SolverError(f"solver command failed pre-flight: {exc}") from exc
    if verdict.status != SAT:
        raise SolverError(
            f"solver command failed pre-flight: {verdict.status} on the empty "
            f"request\n{verdict.transcript}".rstrip())
    return backend


def _attack_seed(attack, seed_path: Path) -> dict:
    """The report of ``attack(seed)``, ``run_attack`` with all but the seed
    bound, on the seed at ``seed_path``."""
    result = attack(_read_json(seed_path, f"seeds: {seed_path}", _as_array))
    return attack_result_to_json(result, seed_ref=str(seed_path))


def _seed_report(seed_path: Path, attack) -> dict:
    """``attack()``.  A SolverError ends the run; any other failure, a dead pool
    worker's included, makes the seed's report ``"outcome": "error"``."""
    try:
        return attack()
    except SolverError:
        raise
    except Exception as exc:
        return {"seed": str(seed_path), "outcome": "error", "error": str(exc)}


def _load_influence(args: argparse.Namespace, model: ModelSpec) -> InfluenceMap:
    """``--influence-map``, which must cover every neuron of the model, or
    else the map of the first seed built from ``--background``."""
    if not args.influence_map:
        first = args.seeds[0]
        return _build_influence(args, model, _read_json(first, f"seeds: {first}", _as_array))
    imap = _read_json(args.influence_map, "influence-map", InfluenceMap.from_json)
    missing = [nid for depth in range(model.output_depth + 1)
               for nid in model.neuron_ids(depth) if nid not in imap]
    if missing:
        raise InputError(f"influence-map: lacks {len(missing)} of the model's neurons, "
                         f"{missing[0].key()} first")
    return imap


def cmd_attack(args: argparse.Namespace, model: ModelSpec) -> int:
    size = math.prod(model.shapes[0])
    if args.pixel_indices:
        try:
            args.pixel_indices = check_pixels(
                [int(s) for s in args.pixel_indices.split(",") if s], size)
        except ValueError as exc:
            raise InputError(f"pixel-indices: {exc}") from None
    if not 1 <= args.pixels <= size:
        raise InputError(f"pixels: {args.pixels} is not in 1..{size}")
    try:
        normalize_domains(args.domain, 1)
    except ValueError as exc:
        raise InputError(f"domain: {exc}") from None
    for flag, seconds in (("solver-timeout-s", args.solver_timeout_s),
                          ("build-cap-s", args.build_cap_s),
                          ("wall-budget-s", args.wall_budget_s)):
        if seconds is not None and not 0.0 < seconds < math.inf:
            raise InputError(f"{flag}: {seconds} is not a finite positive number of seconds")
    if args.build_cap_s is not None and args.strategy != "pq-capped":
        raise InputError(f"build-cap-s: applies to --strategy pq-capped, not {args.strategy}")
    if args.workers < 1:
        raise InputError(f"workers: {args.workers} is not a positive count")
    cap = () if args.build_cap_s is None else (args.build_cap_s,)
    scheduler = getattr(Scheduler, args.strategy.replace("-", "_"))(*cap)
    seed_paths = _json_files("seeds", args.seeds)
    _distinct("seeds", seed_paths, operator.attrgetter("stem"), "would write one report")
    args.seeds = [str(p) for p in seed_paths]
    imap = _load_influence(args, model)
    backend = _attack_backend(args.solver_cmd or f"{sys.executable} -m attnconcolic.refsolver")
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    attack = partial(_attack_seed, partial(
        run_attack, model, imap,
        pixels=args.pixel_indices or _default_pixels(imap, model, args.pixels),
        domain=args.domain, scheduler=scheduler, wall_budget_s=args.wall_budget_s,
        backend=backend, solver_timeout_s=args.solver_timeout_s))
    workers = min(args.workers, len(seed_paths))  # a pool starts all its workers at once
    if workers > 1:  # each task gets copies: the map, and the backend without its session
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(attack, path) for path in seed_paths]
            try:
                docs = [_seed_report(path, f.result) for path, f in zip(seed_paths, futures)]
            finally:  # after a SolverError, the seeds not yet started are dropped
                pool.shutdown(cancel_futures=True)
    else:
        docs = [_seed_report(path, partial(attack, path)) for path in seed_paths]

    artifacts: list[Path] = []
    for path, doc in zip(seed_paths, docs):
        out_path = out_dir / f"attack_{path.stem}.json"
        out_path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        artifacts.append(out_path)

    csv_path = out_dir / "attacks.csv"
    columns = ["seed", "iterations", "sat", "unsat", "gen_constraints",
               "sol_constraints", "wall_s", "cpu_s", "outcome"]
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        for doc in docs:
            writer.writerow({col: doc.get(col, "") for col in columns})
    artifacts.append(csv_path)
    _write_manifest(out_dir, args, artifacts)

    successes = sum(1 for d in docs if d.get("outcome") == "success")
    print(f"attacked {len(docs)} seed(s): {successes} success, "
          f"{len(docs) - successes} other")
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_acdp(args: argparse.Namespace, model: ModelSpec) -> int:
    if not 0.0 < args.alpha <= 1.0:
        raise InputError(f"alpha: {args.alpha} is not in (0, 1]")
    if not 0.0 <= args.beta < 1.0:
        raise InputError(f"beta: {args.beta} is not in [0, 1)")
    background = _read_json(args.background, "background",
                            partial(BackgroundSet, seed=args.random_seed))
    claims = _claims(args.reports, model)
    if not claims:
        print("no successful attacks in the given reports", file=sys.stderr)
        return EXIT_EMPTY_ANALYSIS
    for claim in claims:
        if not claim.flips:
            original, flipped = claim.labels
            raise InputError(f"reports: {claim.path}: the model labels its adversarial input "
                             f"{claim.label}, not the flip {original} -> {flipped} it claims")
    suite = [(claim.input, relevance(model, background, claim.input,
                                     n_permutations=args.permutations)) for claim in claims]

    report = abstract_path(suite, args.alpha, args.beta, [claim.labels for claim in claims])
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    weights_path = out_dir / "acdp_weights.csv"
    with open(weights_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["neuron", "weight"])
        for nid in sorted(report.weights):
            writer.writerow([nid.key(), report.weights[nid]])
    report_path = out_dir / "acdp.json"
    report_path.write_text(
        json.dumps(report.to_json(weights_path.name), indent=2) + "\n",
        encoding="utf-8")
    _write_manifest(out_dir, args, [report_path, weights_path])
    print(f"suite of {report.suite_size}: {len(report.members)} neurons above "
          f"beta={report.beta}; pair entropy "
          f"{report.entropy_bits:.3f} bits")
    print(f"wrote {report_path}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace, model: ModelSpec) -> int:
    claims = _claims(args.reports, model)
    failures = []
    for claim in claims:
        (original, flipped), label = claim.labels, claim.label
        in_bounds = all(claim.bounds[p][0] <= v <= claim.bounds[p][1]
                        for p, v in claim.values.items())
        passed = claim.flips and in_bounds
        print(f"{'PASS' if passed else 'FAIL'} {claim.path}: label {original} -> {label}"
              f"{'' if label == flipped else f' (report claims {flipped})'}"
              f"{'' if in_bounds else ' (out of bounds)'}")
        if not passed:
            failures.append(str(claim.path))
    if failures:
        print(f"{len(failures)} case(s) failed re-execution: {', '.join(failures)}",
              file=sys.stderr)
        return EXIT_VERIFY_FAILED
    print(f"verified {len(claims)} successful case(s)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--output-dir", default="out", help="artifact directory")
    p.add_argument("--random-seed", type=int, default=0)
    p.add_argument("--permutations", type=int, default=DEFAULT_PERMUTATIONS,
                   help="permutation count for the sampling estimator")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attnconcolic",
        description="Influence-guided concolic testing of attention classifiers")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("influence", help="precompute the per-neuron influence map")
    _add_common(p)
    p.add_argument("--background", required=True, help="background inputs JSON")
    p.add_argument("--seed-input", required=True, help="probe input JSON")

    p = sub.add_parser("attack", help="search for label flips per seed")
    _add_common(p)
    p.add_argument("--seeds", nargs="+", required=True,
                   help="seed JSON files or directories")
    p.add_argument("--background", help="background inputs JSON (to build the map inline)")
    p.add_argument("--influence-map", help="precomputed influence map JSON")
    p.add_argument("--pixels", type=int, default=1,
                   help="perturb the top-N most influential pixels")
    p.add_argument("--pixel-indices", help="explicit flat pixel indices, comma separated")
    p.add_argument("--domain", nargs=2, type=float, default=(0.0, 1.0),
                   metavar=("LO", "HI"))
    p.add_argument("--strategy", default="pq",
                   choices=sorted(name.replace("_", "-") for name in Scheduler.POLICIES))
    p.add_argument("--build-cap-s", type=float, default=None,
                   help="per-constraint build cap (pq-capped only)")
    p.add_argument("--wall-budget-s", type=float, default=None)
    p.add_argument("--solver-cmd", default="",
                   help="external SMT solver command (default: bundled reference solver)")
    p.add_argument("--solver-timeout-s", type=float, default=60.0)
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("acdp", help="aggregate successful attacks into an ACDP")
    _add_common(p)
    p.add_argument("--background", required=True)
    p.add_argument("--reports", nargs="+", required=True,
                   help="attack report files or directories")
    p.add_argument("--alpha", type=float, default=0.2)
    p.add_argument("--beta", type=float, default=0.5)

    p = sub.add_parser("verify", help="re-execute claimed adversarial inputs")
    p.add_argument("--model", required=True)
    p.add_argument("--reports", nargs="+", required=True)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(message)s")  # influence's per-depth lines
    handlers = {"influence": cmd_influence, "attack": cmd_attack,
                "acdp": cmd_acdp, "verify": cmd_verify}
    try:
        if "permutations" in args and args.permutations < 1:  # before any file is read
            raise InputError(f"n_permutations must be at least 1, got --permutations "
                             f"{args.permutations}")
        return handlers[args.command](args, _read_json(args.model, "model", ModelSpec.from_json))
    except (InputError, ModelConfigError, ConfigurationError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER_ERROR


if __name__ == "__main__":
    sys.exit(main())
