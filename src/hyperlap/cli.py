"""Experiment driver: one subcommand per capability, seeded and reproducible.

One table, _SUBCOMMANDS, declares every subcommand: its help, its flags,
where its instances come from, its default --trials and its runner.  The
parser, the config echo and the instance-source checks are derived from
it.  All randomness flows from --seed and the trial index through a
splittable seed derivation, so trial k draws the same instance whatever
the rest of the run does.  Reports are JSON or CSV, written atomically
when --output is given, and byte-stable when re-run with identical flags
(--deterministic drops the one timestamp field).

Exit status: 0 when the run's check passes, 1 on a tolerance failure or a
trial-level error (reported as a structured record), 2 on a usage or
setup error.  argparse rejects only syntax: an unknown or missing flag, a
malformed number, a bad choice.  _check_params refuses every run that the
flag values alone decide (not exactly one source, a bad value, a stop
size that is not loose, s-sets past the dense cap, more --complete edges
than --budget) before any instance is sampled, read or built: an exit-2
document from main, the same HyperlapError from run().  The config echo
writes a non-finite value as the string "nan" or "inf".  An --output or
--dump-matrix path that cannot be written is BadParams; an unwritable
--output sends its document to stdout.  A reference constant or a census
bound past the float range, or a walk table past walks.MAX_TABLE_STEPS,
is an exit-2 TooLarge document; walk-count tabulates min(n, J) vertices,
at most J = s + (t // 2)(r - s), so a large n alone never reaches the
table cap.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from typing import IO, Callable

import numpy as np

from .combin import _check_loose, _to_float, _work_budget, binom, colex_unrank
from .errors import BadParams, DegenerateKneser, HyperlapError, TooLarge
from .hypergraph import (
    Hypergraph,
    RandomModel,
    complete,
    expected_stop_degree,
    read_hypergraph,
    sample,
)
from .laplacian import (
    _dense_dim,
    build_aux,
    complete_spectrum,
    centered_weight,
    dump_matrix,
)
from .spectra import (
    Ecdf,
    eigenvalues_sym,
    ks_distance,
    scaled_ecdf,
    semicircle_cdf,
    spectral_radius,
)
from .walks import census, census_upper_bound
from . import apps


# a report holds one record per --bins bin and one factor per --steps step
MAX_SERIES = 10**4

# output is an execution mechanic, not part of the experiment: the echo
# omits it so runs that differ only there compare byte-identical
_CORE_FIELDS = (
    "subcommand", "n", "r", "s", "p", "t", "seed", "trials",
    "format", "budget", "deterministic",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; two configs compare equal iff runs are identical."""

    subcommand: str
    n: int | None = None
    r: int | None = None
    s: int | None = None
    p: float | None = None
    t: int | None = None
    seed: int = 0
    trials: int = 1
    format: str = "json"
    output: str | None = None
    budget: int | None = None
    deterministic: bool = False
    use_complete: bool = False
    input_path: str | None = None
    dump_path: str | None = None
    slack: float = 3.0
    bins: int = 40
    ks_tol: float = 0.05
    steps: int = 3
    family_frac: float = 0.25
    tol: float = 1e-9

    def echo(self) -> dict:
        # config echo keeps the core fields and the subcommand's own flags
        d = asdict(self)
        own = [_dest(flag) for flag in _flags(_SUBCOMMANDS[self.subcommand])]
        keep = _CORE_FIELDS + tuple(k for k in own if k not in _CORE_FIELDS)
        # JSON has no NaN or infinity: a rejected non-finite value echoes as its repr
        return {k: repr(d[k]) if isinstance(d[k], float) and not math.isfinite(d[k])
                else d[k] for k in keep if d[k] is not None}


@dataclass
class ExperimentReport:
    config: dict
    records: list
    summary: dict
    passed: bool
    timestamp: str | None = None


def trial_seed(base: int, trial: int) -> int:
    """Derived 64-bit seed for one trial; stable under any execution order."""
    ss = np.random.SeedSequence(entropy=base, spawn_key=(trial,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _trials(
    cfg: ExperimentConfig, body: Callable[[int, Hypergraph], dict], ok: Callable[[dict], bool]
) -> tuple[list[dict], list[dict], int]:
    """Run body(k, h) on each trial's instance: (records, good records, passes).

    A record is {"trial": k, **body(k, h)} plus "seed" when h was sampled.
    --p-only subcommands always sample and put the seed right after the
    trial; the others append it.  Module errors become {"trial": k,
    "error", "message"} records instead of aborting the run.  passes
    counts the good records that ok accepts; the run passes when it
    equals --trials.
    """
    sampled = not (cfg.use_complete or cfg.input_path)
    lead = _SUBCOMMANDS[cfg.subcommand].source == "p"
    records = []
    for k in range(cfg.trials):
        seed = trial_seed(cfg.seed, k)
        head = {"trial": k, "seed": seed} if lead else {"trial": k}
        try:
            rec = {**head, **body(k, _instance(cfg, seed))}
        except HyperlapError as exc:
            records.append({"trial": k, "error": type(exc).__name__, "message": str(exc)})
            continue
        if sampled and not lead:
            rec["seed"] = seed
        records.append(rec)
    good = [rec for rec in records if "error" not in rec]
    return records, good, sum(bool(ok(rec)) for rec in good)


def _instance(cfg: ExperimentConfig, seed: int) -> Hypergraph:
    """One hypergraph from --input, --complete, or the seeded random model."""
    if cfg.input_path:
        try:
            with open(cfg.input_path) as fh:
                return read_hypergraph(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise BadParams(f"cannot read --input: {exc}") from exc
    if cfg.use_complete:
        return complete(cfg.n, cfg.r)
    return sample(RandomModel(cfg.n, cfg.r, cfg.p, seed), cfg.budget)


# ---------------------------------------------------------------- subcommands


def _run_spectrum(cfg: ExperimentConfig):
    h = _instance(cfg, trial_seed(cfg.seed, 0))
    g, lap, spec = apps._spectrum_of(h, cfg.s)
    if cfg.dump_path:
        _atomic_write(cfg.dump_path, lambda fh: dump_matrix(lap, fh), "--dump-matrix")
    if cfg.use_complete:
        pairs = complete_spectrum(cfg.n, cfg.r, cfg.s)
        closed = np.repeat([e.value for e in pairs], [e.multiplicity for e in pairs])
        err = float(np.max(np.abs(closed - spec.values)))
        records = [asdict(e) for e in pairs]
        summary = {
            "dim": spec.dim,
            "max_abs_error": err,
            "tolerance": cfg.tol,
            "excluded": g.dim - g.kept.size,
        }
        return records, summary, err <= cfg.tol
    records = [{"k": i, "value": float(v)} for i, v in enumerate(spec.values)]
    summary = {
        "dim": spec.dim,
        "edges": h.num_edges,
        "trivial_count": spec.trivial_count,
        "excluded": g.dim - g.kept.size,
    }
    if spec.dim >= 2 and spec.trivial_count == 1:
        summary["lambda1"] = spec.lambda1
        summary["lambda_max"] = spec.lambda_max
        summary["lambda_bar"] = spec.lambda_bar
    return records, summary, True


def _radius_reference(n: int, r: int, s: int, p: float, slack: float) -> float:
    d = expected_stop_degree(n, r, s, p)
    return s / (n - s) + slack * math.sqrt((1.0 - p) / d)


def _run_radius(cfg: ExperimentConfig):
    bound = _radius_reference(cfg.n, cfg.r, cfg.s, cfg.p, cfg.slack)

    def one(k: int, h: Hypergraph) -> dict:
        lam = spectral_radius(apps._spectrum_of(h, cfg.s)[2])
        return {"edges": h.num_edges, "lambda_bar": lam, "bound": bound,
                "within": bool(lam <= bound)}

    records, good, within = _trials(cfg, one, lambda rec: rec["within"])
    summary = {
        "trials": cfg.trials,
        "errors": len(records) - len(good),
        "within": within,
        "bound": bound,
        "slack": cfg.slack,
        "max_lambda_bar": max((rec["lambda_bar"] for rec in good), default=None),
    }
    return records, summary, within == cfg.trials


def _run_semicircle(cfg: ExperimentConfig):
    n, r, s = cfg.n, cfg.r, cfg.s
    # the row sum of the complete hypergraph's weight matrix
    row_sum = _to_float(binom(r - s, s) * binom(n - s, r - s),
                        f"C({r - s}, {s})*C({n - s}, {r - s})")
    radius = 2.0 * math.sqrt(row_sum * cfg.p * (1.0 - cfg.p))

    def one(k: int, h: Hypergraph) -> dict:
        c = centered_weight(build_aux(h, cfg.s), cfg.p)
        return {"points": scaled_ecdf(eigenvalues_sym(c), 0.0, radius).points}

    per_trial, good, _ = _trials(cfg, one, lambda rec: True)
    errors = len(per_trial) - len(good)
    # an empty pool (every trial errored) still gets a complete report
    pooled = np.concatenate([np.empty(0)] + [rec["points"] for rec in good])
    ks = ks_distance(Ecdf(pooled), semicircle_cdf) if pooled.size else None
    lo, hi = -1.25, 1.25
    counts, edges = np.histogram(pooled, bins=cfg.bins, range=(lo, hi))
    records = [
        {"bin_left": float(edges[i]), "bin_right": float(edges[i + 1]),
         "count": int(counts[i])}
        for i in range(cfg.bins)
    ]
    summary = {
        "trials": cfg.trials,
        "errors": errors,
        "pooled": int(pooled.size),
        "outside_range": int(pooled.size - counts.sum()),
        "radius": radius,
        "ks_distance": ks,
        "ks_tol": cfg.ks_tol,
    }
    return records, summary, not errors and ks is not None and ks <= cfg.ks_tol


def _run_walk_count(cfg: ExperimentConfig):
    cen = census(cfg.n, cfg.r, cfg.s, cfg.t, cfg.budget)
    records = []
    violations = 0
    for (i, j), cnt in sorted(cen.counts.items()):
        bnd = census_upper_bound(cfg.n, cfg.r, cfg.s, cfg.t, i, j)
        violations += cnt > bnd
        records.append(
            {"n": cfg.n, "r": cfg.r, "s": cfg.s, "t": cfg.t,
             "i": i, "j": j, "count": cnt, "bound": bnd}
        )
    summary = {"cells": len(records), "total": cen.total, "violations": violations}
    return records, summary, violations == 0


def _run_mixing(cfg: ExperimentConfig):
    def one(k: int, h: Hypergraph) -> dict:
        g, _, spec = apps._spectrum_of(h, cfg.s)
        # the radius before the walk: a trial with no positive-degree stop is
        # Disconnected, where transition_system would say EmptySample
        lam = spectral_radius(spec)
        rep = apps.mixing_contraction(
            apps.transition_system(g), lam, steps=cfg.steps, tol=cfg.tol
        )
        return {
            "factors": [float(f) for f in rep.factors],
            "bound": rep.bound,
            "skipped": rep.skipped,
            "holds": rep.holds,
        }

    records, _, holds = _trials(cfg, one, lambda rec: rec["holds"])
    summary = {"trials": cfg.trials, "holds": holds, "steps": cfg.steps}
    return records, summary, holds == cfg.trials


def _run_diameter(cfg: ExperimentConfig):
    def one(k: int, h: Hypergraph) -> dict:
        g, _, spec = apps._spectrum_of(h, cfg.s)
        diam = apps.s_diameter(g)
        bnd = apps.diameter_bound(spec, g)
        return {"diameter": diam, "bound": bnd, "within": bool(diam <= bnd)}

    records, good, within = _trials(cfg, one, lambda rec: rec["within"])
    summary = {"trials": cfg.trials, "errors": len(records) - len(good),
               "within": within}
    return records, summary, within == cfg.trials


def _run_expansion(cfg: ExperimentConfig):
    def one(k: int, h: Hypergraph) -> dict:
        lam = spectral_radius(apps._spectrum_of(h, cfg.s)[2])
        count = binom(h.n, cfg.s)
        size = max(1, round(cfg.family_frac * count))
        # family draws get their own stream so instance sampling is untouched
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=cfg.seed, spawn_key=(k, 1))
        )
        fam_s = colex_unrank(rng.choice(count, size, replace=False), h.n, cfg.s)
        fam_t = colex_unrank(rng.choice(count, size, replace=False), h.n, cfg.s)
        rep = apps.edge_expansion(h, cfg.s, fam_s, fam_t, lam, tol=cfg.tol)
        return {"family_size": size, **asdict(rep)}

    records, _, holds = _trials(cfg, one, lambda rec: rec["holds"])
    summary = {"trials": cfg.trials, "holds": holds}
    return records, summary, holds == cfg.trials


def _run_ekr(cfg: ExperimentConfig):
    sizes = [cfg.s] if cfg.s is not None else list(range(1, cfg.n // 2 + 1))
    if not sizes:
        raise DegenerateKneser(f"no stop size s with n >= 2s >= 2, n={cfg.n}")
    records = []
    for s in sizes:
        b = apps.ekr_bound(cfg.n, s)
        records.append({"n": cfg.n, "s": s, **asdict(b), "match": b.bound == b.star})
    matches = sum(rec["match"] for rec in records)
    summary = {"rows": len(records), "matches": matches}
    return records, summary, matches == len(records)


def _run_monotonicity(cfg: ExperimentConfig):
    def one(k: int, h: Hypergraph) -> dict:
        rep = asdict(apps.monotonicity_check(h, tol=cfg.tol))
        # CSV JSON-encodes a list cell; asdict keeps the rows a tuple
        return {**rep, "rows": list(rep["rows"])}

    records, _, ok = _trials(
        cfg, one,
        lambda rec: rec["lambda1_nonincreasing"] and rec["lambda_max_nondecreasing"],
    )
    summary = {"trials": cfg.trials, "holds": ok}
    return records, summary, ok == cfg.trials


def _run_diagnostics(cfg: ExperimentConfig):
    d = expected_stop_degree(cfg.n, cfg.r, cfg.s, cfg.p)
    count = binom(cfg.n, cfg.s)  # at most MAX_DENSE_DIM: _check_params caps it
    window = 3.0 * math.sqrt(d * math.log(count))
    reference = count * d * (1.0 - cfg.p)
    if math.isinf(window) or math.isinf(reference):
        raise TooLarge("the degree window or the sum-of-squares reference exceeds "
                       "the float range")

    def one(k: int, h: Hypergraph) -> dict:
        g = build_aux(h, cfg.s)
        degs = g.stop_degrees
        outside = int(((degs <= d - window) | (degs >= d + window)).sum())
        pert = apps.perturbation_diagnostics(g, cfg.p)
        return {
            "degree_min": int(degs.min()),
            "degree_max": int(degs.max()),
            "outside_window": outside,
            "sum_sq_ratio": float(((degs - d) ** 2).sum()) / reference,
            "norms": pert.norms,
            "identity_residual": pert.identity_residual,
            "triangle_holds": pert.triangle_holds,
        }

    records, good, ok = _trials(
        cfg, one,
        lambda rec: rec["outside_window"] == 0
        and rec["triangle_holds"]
        and rec["identity_residual"] <= cfg.tol,
    )
    summary = {
        "trials": cfg.trials,
        "errors": len(records) - len(good),
        "holds": ok,
        "expected_degree": d,
        "window": window,
        "sum_sq_reference": reference,
    }
    return records, summary, ok == cfg.trials


# ---------------------------------------------------------------- the table

# every flag a subcommand can take, as argparse keywords; defaults are
# ExperimentConfig's, since a flag left off does not reach the namespace
_OPTIONS = {
    "--n": {"type": int, "required": True},
    "--r": {"type": int, "required": True},
    "--s": {"type": int, "required": True},
    "--t": {"type": int, "required": True},
    "--p": {"type": float, "required": True},
    "--complete": {"action": "store_true", "dest": "use_complete"},
    "--input": {"metavar": "PATH", "dest": "input_path"},
    "--dump-matrix": {"metavar": "PATH", "dest": "dump_path"},
    "--slack": {"type": float},
    "--bins": {"type": int},
    "--ks-tol": {"type": float},
    "--steps": {"type": int},
    "--family-frac": {"type": float},
    "--tol": {"type": float},
    "--seed": {"type": int},
    "--trials": {"type": int},
    "--format": {"choices": ("json", "csv")},
    "--output": {"metavar": "PATH"},
    "--budget": {"type": int},
    "--deterministic": {"action": "store_true"},
}
_COMMON = ("--format", "--output", "--deterministic")
# instance source -> its flags; a trailing "?" makes a required flag optional.
# "any": exactly one of --complete, --input and --p; "p": --p only.
_SOURCE_FLAGS = {
    None: (),
    "p": ("--p", "--seed", "--budget"),
    "any": ("--complete", "--input", "--p?", "--seed", "--budget"),
}
# the "any" flags that an instance from --complete or --input never reads,
# refused like an unknown flag; expansion seeds its family draws from --seed
_UNREAD_WITH = {"--complete": ("--seed",), "--input": ("--seed", "--budget")}


@dataclass(frozen=True)
class _Subcommand:
    """One subcommand: its flags beyond the common ones and its instance
    source, its default --trials, and run(cfg) -> (records, summary, passed)."""

    help: str
    flags: tuple[str, ...]
    source: str | None
    trials: int
    run: Callable[[ExperimentConfig], tuple[list, dict, bool]]


def _flags(sub: _Subcommand) -> tuple[str, ...]:
    return _SOURCE_FLAGS[sub.source] + sub.flags


def _dest(flag: str) -> str:
    opt = flag.rstrip("?")
    return _OPTIONS[opt].get("dest", opt[2:].replace("-", "_"))


_SUBCOMMANDS = {
    "spectrum": _Subcommand(
        "eigenvalues of the s-th Laplacian",
        ("--n", "--r", "--s", "--dump-matrix", "--tol"), "any", 1, _run_spectrum),
    "radius": _Subcommand(
        "lambda_bar of random instances vs bound",
        ("--n", "--r", "--s", "--slack", "--trials"), "p", 10, _run_radius),
    "semicircle": _Subcommand(
        "scaled spectrum of W - E(W) vs the law",
        ("--n", "--r", "--s", "--bins", "--ks-tol", "--trials"), "p", 10, _run_semicircle),
    "walk-count": _Subcommand(
        "good closed walk census with bounds",
        ("--n", "--r", "--s", "--t", "--budget"), None, 1, _run_walk_count),
    "mixing": _Subcommand(
        "random-walk contraction factors vs lambda_bar",
        ("--n", "--r", "--s", "--steps", "--tol", "--trials"), "any", 1, _run_mixing),
    "diameter": _Subcommand(
        "s-distance diameter vs the spectral bound",
        ("--n", "--r", "--s", "--tol", "--trials"), "any", 1, _run_diameter),
    "expansion": _Subcommand(
        "edge counts between random s-set families vs the bound",
        ("--n", "--r", "--s", "--family-frac", "--tol", "--trials"), "any", 1, _run_expansion),
    "ekr": _Subcommand(
        "intersecting-family bound from eigenvalue counts",
        ("--n", "--s?"), None, 1, _run_ekr),
    "monotonicity": _Subcommand(
        "lambda_1 and lambda_max across stop sizes",
        ("--n", "--r", "--tol", "--trials"), "any", 1, _run_monotonicity),
    "diagnostics": _Subcommand(
        "degree concentration and perturbation split",
        ("--n", "--r", "--s", "--tol", "--trials"), "p", 5, _run_diagnostics),
}


def _check_params(cfg: ExperimentConfig) -> None:
    """Refuse every run the flags alone decide, before any reference
    constant and before any instance is sampled, read or built.

    An "any"-source subcommand needs exactly one source, and --p for more
    than one trial.  Unless n and r come from an --input file, checked per
    trial, r must lie in [1, n], the stop size must be loose and its s-sets
    must fit the dense cap; monotonicity sweeps s = 1 .. r/2, so s = 1 must
    be loose and every s must fit, and --complete refuses more C(n, r)
    edges than the budget, as sample refuses candidates.  walk-count builds
    no dense matrix; its walks live on range(n), so r > n has no census,
    and it checks the stop size first, as census does.
    """
    source = _SUBCOMMANDS[cfg.subcommand].source
    if source == "any":
        given = [flag for flag, on in (("--complete", cfg.use_complete),
                                       ("--input", cfg.input_path),
                                       ("--p", cfg.p is not None)) if on]
        if len(given) != 1:
            raise BadParams(f"{cfg.subcommand} needs exactly one of --complete, --input "
                            f"and --p, got {', '.join(given) or 'none'}")
        if cfg.trials > 1 and cfg.p is None:
            raise BadParams(f"--trials > 1 needs --p, got {cfg.trials} with {given[0]}")
    limit = _work_budget(cfg.budget)
    if cfg.seed < 0:
        raise BadParams(f"seed must be nonnegative, got {cfg.seed}")
    if cfg.n is not None and cfg.n < 0:
        raise BadParams(f"need n >= 0, got {cfg.n}")
    if cfg.p is not None and not 0 < cfg.p < 1:
        raise BadParams(f"need 0 < p < 1, got {cfg.p}")
    if cfg.trials < 1:
        raise BadParams(f"need trials >= 1, got {cfg.trials}")
    for name in ("bins", "steps"):
        if not 1 <= getattr(cfg, name) <= MAX_SERIES:
            raise BadParams(f"need 1 <= {name} <= {MAX_SERIES}, got {getattr(cfg, name)}")
    if not 0 < cfg.family_frac <= 1:
        raise BadParams(f"need 0 < family_frac <= 1, got {cfg.family_frac}")
    for name in ("tol", "slack", "ks_tol"):
        if not 0 <= getattr(cfg, name) < math.inf:
            raise BadParams(f"need a finite {name} >= 0, got {getattr(cfg, name)}")
    walks = cfg.subcommand == "walk-count"
    built = source is not None and not cfg.input_path
    if walks:
        _check_loose(cfg.r, cfg.s)
    if walks or built:
        if not 1 <= cfg.r <= cfg.n:
            raise BadParams(f"need 1 <= r <= n, got r={cfg.r}, n={cfg.n}")
        _check_loose(cfg.r, 1 if cfg.s is None else cfg.s)
    if built:
        for s in [cfg.s] if cfg.s is not None else range(1, cfg.r // 2 + 1):
            _dense_dim(cfg.n, s)
        if cfg.use_complete and binom(cfg.n, cfg.r) > limit:
            raise TooLarge(f"C({cfg.n}, {cfg.r}) edges exceed budget {limit}")


def _stamp(cfg: ExperimentConfig) -> str | None:
    return None if cfg.deterministic else datetime.now(timezone.utc).isoformat()


def run(config: ExperimentConfig) -> ExperimentReport:
    """Execute one experiment; deterministic given the config."""
    _check_params(config)
    records, summary, passed = _SUBCOMMANDS[config.subcommand].run(config)
    return ExperimentReport(config.echo(), records, summary, passed, _stamp(config))


# ------------------------------------------------------------------- output


def _format_json(rep: ExperimentReport) -> str:
    doc = {"config": rep.config}
    if rep.timestamp is not None:
        doc["timestamp"] = rep.timestamp
    doc["records"] = rep.records
    doc["summary"] = rep.summary
    doc["pass"] = rep.passed
    return json.dumps(doc, indent=2) + "\n"


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, dict)):
        return json.dumps(v, separators=(";", ":"))
    return str(v)


def _format_csv(rep: ExperimentReport) -> str:
    out = io.StringIO()
    out.write("# config " + json.dumps(rep.config, separators=(",", ":")) + "\n")
    if rep.timestamp is not None:
        out.write(f"# timestamp {rep.timestamp}\n")
    if rep.records:
        # csv quotes only the cells that hold a comma, a quote or a newline
        keys = list(dict.fromkeys(k for rec in rep.records for k in rec))
        rows = csv.writer(out, lineterminator="\n")
        rows.writerow(keys)
        rows.writerows([_csv_cell(rec.get(k, "")) for k in keys] for rec in rep.records)
    for k, v in rep.summary.items():
        out.write(f"# {k}={_csv_cell(v)}\n")
    out.write(f"# pass={_csv_cell(rep.passed)}\n")
    return out.getvalue()


def _atomic_write(path: str, write: Callable[[IO[str]], None], flag: str) -> None:
    """Stream write's output to a temporary file and land it at path in one
    rename, so a failed write leaves no partial file; a path that cannot be
    written is a BadParams naming its flag."""
    folder = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=folder, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                write(fh)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        # strerror and path, not str(exc): that names the random temporary file
        raise BadParams(f"cannot write {flag}: {exc.strerror or exc}: {path}") from exc


def emit(rep: ExperimentReport, cfg: ExperimentConfig) -> None:
    text = _format_json(rep) if cfg.format == "json" else _format_csv(rep)
    if cfg.output:
        _atomic_write(cfg.output, lambda fh: fh.write(text), "--output")
    else:
        sys.stdout.write(text)


# ------------------------------------------------------------------- parser


@functools.cache  # built on the first main() call, then reused by every later one
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hyperlap",
        description="Spectra of loose Laplacians of uniform hypergraphs.",
    )
    sub = top.add_subparsers(dest="subcommand", required=True)
    for name, spec in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=spec.help, argument_default=argparse.SUPPRESS)
        for flag in _flags(spec) + _COMMON:
            opt = flag.rstrip("?")
            kw = dict(_OPTIONS[opt])
            if opt != flag:
                kw["required"] = False
            p.add_argument(opt, **kw)
        p.set_defaults(trials=spec.trials)
    return top


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = vars(parser.parse_args(argv))  # only the flags given
    for source, flags in _UNREAD_WITH.items():
        if _dest(source) in args and "p" not in args:
            for flag in flags:
                if _dest(flag) in args and (flag, args["subcommand"]) != ("--seed", "expansion"):
                    parser.error(f"argument {flag}: not read with {source}")
    cfg = ExperimentConfig(**args)
    try:
        report = run(cfg)
        code = 0 if report.passed else 1
    except HyperlapError as exc:
        report, code = _failure(cfg, exc), 2
    try:
        emit(report, cfg)
    except BadParams as exc:
        # --output cannot be written, so the document goes to stdout; a run
        # that already failed at setup keeps its own error and notes this one
        if code == 2:
            report.summary["message"] += f"; {exc}"
        else:
            report = _failure(cfg, exc)
        emit(report, replace(cfg, output=None))
        return 2
    return code


def _failure(cfg: ExperimentConfig, exc: HyperlapError) -> ExperimentReport:
    """The complete, structured document of a run that failed at setup."""
    summary = {"error": type(exc).__name__, "message": str(exc)}
    return ExperimentReport(cfg.echo(), [], summary, False, _stamp(cfg))


if __name__ == "__main__":
    sys.exit(main())
