"""Command-line frontend orchestrating the pipeline end to end.

Every subcommand reads a flat key=value config file (overridable by flags),
derives per-stage seeds from one global seed, and stamps each output file
with a hash of the semantic configuration, so one config+seed always yields
byte-identical artifacts. Execution parameters (--out-dir, --threads) stay
out of the hash: they never affect results. Stages currently run
sequentially whatever the thread setting, which keeps reductions in a fixed
order.

Exit codes: 0 success, 1 validation error, 2 numerical failure, 64 usage.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
import typing
from dataclasses import dataclass, fields, replace
from functools import partial
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import authors as authors_mod
from . import choices as choices_mod
from . import estimators, graph as graph_mod, initiations as init_mod, labelshift
from .events import (
    SchemaError,
    UnresolvedAmpError,
    _csv_columns,
    _json_file,
    _write_csv,
    filter_self_interactions,
    load_logs,
    load_updates,
    project_to_author_edges,
    resolve_amp_timestamps,
    unique_pair_count,
)

SUBCOMMANDS = (
    "ingest", "project", "network", "initiations", "authors", "features",
    "sample", "fit-mnl", "fit-logit", "fit-ols", "bbse", "kappa", "synth", "report",
)

# Stage labels feeding the seed-splitting rule (sha256 of "<seed>/<stage>").
STAGE_SAMPLE = "sample"
STAGE_SYNTH = "synth"

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_USAGE = 64


def derive_seed(seed: int, stage: str) -> int:
    """Fan one global seed out to a 64-bit per-stage seed."""
    digest = hashlib.sha256(f"{seed}/{stage}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class RunConfig:
    """Pipeline settings; file keys and flag names match the field names."""

    interactions: str | None = None
    updates: str | None = None
    geo_posts: str | None = None
    site_conditions: str | None = None
    format: str = "csv"
    out_dir: str = "."
    seed: int = 0
    negatives: int = 24
    train_frac: float = 0.8
    include_state: bool = False
    timeline_window: int = 2_592_000  # 30 days of seconds
    window_start: int | None = None
    window_end: int | None = None
    tol: float = 1e-8
    max_iter: int = 100
    threads: int = 1

    # Excluded from the hash: execution-only settings that cannot change results.
    _UNHASHED = ("out_dir", "threads")

    def config_hash(self) -> str:
        parts = []
        for f in fields(self):
            if f.name in self._UNHASHED:
                continue
            parts.append(f"{f.name}={getattr(self, f.name)}")
        return hashlib.sha256("\n".join(sorted(parts)).encode()).hexdigest()[:16]

    def validate(self) -> None:
        if not 0.0 < self.train_frac < 1.0:
            raise ValueError("train_frac must be in (0, 1)")
        if self.negatives < 1:
            raise ValueError("negatives must be >= 1")
        if self.window_start is not None and self.window_end is not None and self.window_start >= self.window_end:
            raise ValueError("window_start must precede window_end")
        if self.format not in ("csv", "json-lines"):
            raise ValueError(f"unknown format {self.format!r}")
        for name in ("threads", "timeline_window", "max_iter"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 < self.tol < math.inf:
            raise ValueError("tol must be finite and > 0")


_BOOL_VALUES = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_config_value(name: str, text: str, target_type):
    if target_type is bool:
        try:
            return _BOOL_VALUES[text.lower()]
        except KeyError:
            raise ValueError(f"config key {name}: expected a boolean, got {text!r}") from None
    try:
        return target_type(text)
    except ValueError:
        raise ValueError(f"config key {name}: expected {target_type.__name__}, got {text!r}") from None


def load_config(path: str | None, overrides: dict) -> RunConfig:
    cfg = RunConfig()
    hints = typing.get_type_hints(RunConfig)
    # Each setting's value type, with ``int | None`` read as ``int``.
    field_types = {f.name: (typing.get_args(hints[f.name]) or (hints[f.name],))[0] for f in fields(RunConfig)}
    if path is not None:
        updates: dict = {}
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value")
                key, _, value = line.partition("=")
                key, value = key.strip(), value.strip()
                if key not in field_types:
                    raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
                updates[key] = _parse_config_value(key, value, field_types[key])
        cfg = replace(cfg, **updates)
    cleaned = {k: v for k, v in overrides.items() if v is not None}
    if cleaned:
        cfg = replace(cfg, **cleaned)
    cfg.validate()
    return cfg


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 64 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="netchoice", description="Temporal interaction networks and initiation choice models.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", type=int, help="global seed (fans out per stage)")
        p.add_argument("--negatives", type=int, help="negative samples per choice set")
        p.add_argument("--train-frac", type=float, dest="train_frac", help="calendar train fraction")
        p.add_argument("--include-state", action="store_const", const=True, dest="include_state",
                       help="add the shared-state feature")
        p.add_argument("--out-dir", dest="out_dir", help="output directory")
        p.add_argument("--threads", type=int, help="worker threads (never affects results)")
        p.add_argument("--interactions", help="interaction log path")
        p.add_argument("--updates", help="update log path")
        p.add_argument("--format", choices=["csv", "json-lines"], help="input log format")
        return p

    add("ingest", "parse and validate the raw logs")
    add("project", "project author->site events into author->author interactions")
    add("network", "build the temporal graph and export edges and component series")
    p = add("initiations", "extract and classify initiations")
    p.add_argument("--timeline-window", type=int, dest="timeline_window", help="timeline bin width in seconds")
    for name, help_text in (("authors", "aggregate author roles, conditions, and states"),
                            ("features", "feature vectors for each realized initiation pair"),
                            ("sample", "build negative-sampled choice sets")):
        p = add(name, help_text)
        p.add_argument("--geo-posts", dest="geo_posts", help="geo posts CSV")
        p.add_argument("--site-conditions", dest="site_conditions", help="site conditions CSV")
    p = add("fit-mnl", "fit the conditional multinomial logit")
    p.add_argument("--choices", required=True, help="choice-set JSON-lines file")
    p = add("fit-logit", "fit a binary logistic regression")
    p.add_argument("--data", required=True, help="CSV with outcome and feature columns")
    p.add_argument("--outcome", required=True)
    p.add_argument("--features", required=True, help="comma-separated columns; a:b for products")
    p.add_argument("--no-intercept", action="store_true")
    p = add("fit-ols", "fit ordinary least squares")
    p.add_argument("--data", required=True, help="CSV with outcome and feature columns")
    p.add_argument("--outcome", required=True)
    p.add_argument("--features", required=True, help="comma-separated columns; a:b for products")
    p.add_argument("--no-intercept", action="store_true")
    p.add_argument("--drop", help="columns to drop for a nested F test")
    p = add("bbse", "label-shift correction from a holdout confusion and target marginal")
    p.add_argument("--holdout", required=True, help="CSV with prediction,label columns")
    p.add_argument("--target-marginal", required=True, dest="target_marginal",
                   help="JSON file with the predicted class marginal on the target")
    p = add("kappa", "inter-rater reliability from two label columns")
    p.add_argument("--labels", required=True, help="CSV with rater_a,rater_b columns")
    p = add("synth", "generate synthetic softmax-growth choice data")
    p.add_argument("--n-authors", type=int, default=200, dest="n_authors")
    p.add_argument("--n-choices", type=int, default=1000, dest="n_choices")
    p.add_argument("--pool", type=int, default=25, help="candidate pool size per choice")
    p.add_argument("--beta", default="1.0,-0.5", help="comma-separated true coefficients")
    p.add_argument("--features", dest="synth_features",
                   default="is_friend_of_friend,censored_log_target_indegree",
                   help="comma-separated feature names")
    p = add("report", "descriptive shares and model tables")
    p.add_argument("--initiations", required=True, dest="initiations_csv", help="classified initiations CSV")
    p.add_argument("--authors", dest="authors_csv", help="author table CSV (enables the same-state section)")
    p.add_argument("--fit", dest="fits", action="append", default=[], help="model JSON to include (repeatable)")
    return parser


# -- output helpers ---------------------------------------------------------------


def _write_json(path, payload: dict, cfg: RunConfig) -> None:
    payload = dict(payload)
    payload["config_hash"] = cfg.config_hash()
    Path(path).write_text(json.dumps(_plain_json(payload), sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _plain_json(obj):
    if isinstance(obj, dict):
        return {str(k): _plain_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain_json(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        v = float(obj)
        return v if np.isfinite(v) else None
    if isinstance(obj, np.ndarray):
        return [_plain_json(v) for v in obj.tolist()]
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj


def _out(cfg: RunConfig, name: str) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, name)


def _load_pipeline_logs(cfg: RunConfig):
    if not cfg.interactions or not cfg.updates:
        raise ValueError("this subcommand needs --interactions and --updates (or config keys)")
    return load_logs(cfg.interactions, cfg.updates, cfg.format)


def _projected(cfg: RunConfig):
    events, updates, stats = _load_pipeline_logs(cfg)
    events = resolve_amp_timestamps(events, updates)
    events, removed_self = filter_self_interactions(events, updates)
    interactions = project_to_author_edges(events, updates)
    stats["self_interactions_removed"] = removed_self
    stats["events_kept"] = len(events)
    stats["directed_interactions"] = len(interactions)
    return interactions, updates, stats


def _directory(cfg: RunConfig, updates):
    site_conditions = site_created = None
    if cfg.site_conditions:
        site_conditions, site_created = authors_mod.load_site_conditions(cfg.site_conditions)
    geo = authors_mod.load_geo_posts(cfg.geo_posts) if cfg.geo_posts else None
    return authors_mod.AuthorDirectory(
        updates, site_conditions=site_conditions, site_created=site_created, geo_posts=geo
    )


# -- subcommands -----------------------------------------------------------------


def _cmd_ingest(cfg: RunConfig, args) -> int:
    started = time.perf_counter()
    events, updates, stats = _load_pipeline_logs(cfg)
    elapsed = time.perf_counter() - started
    kinds = {k: int((events.kind == code).sum()) for k, code in (("guestbook", 0), ("amp", 1), ("comment", 2))}
    summary = {
        "interaction_events": len(events),
        "update_events": len(updates),
        "events_by_kind": kinds,
        **stats,
    }
    _write_json(_out(cfg, "ingest_summary.json"), summary, cfg)
    total = len(events) + len(updates)
    print(f"ingest: {len(events)} interactions + {len(updates)} updates "
          f"({stats['interaction_duplicates_removed']} duplicate interactions removed)")
    print(f"throughput: {total / max(elapsed, 1e-9):,.0f} events/s ({elapsed:.2f}s)")
    return EXIT_OK


def _cmd_project(cfg: RunConfig, args) -> int:
    started = time.perf_counter()
    interactions, _, stats = _projected(cfg)
    elapsed = time.perf_counter() - started
    stats["unique_pairs"] = unique_pair_count(interactions)
    columns = ("source_author", "target_author", "timestamp", "kind", "via_site")
    rows = map(attrgetter(*columns), interactions)
    _write_csv(_out(cfg, "projected.csv"), columns, rows, f"config_hash={cfg.config_hash()}")
    _write_json(_out(cfg, "project_summary.json"), stats, cfg)
    print(f"project: {len(interactions)} directed interactions, {stats['unique_pairs']} unique pairs")
    print(f"throughput: {stats['events_kept'] / max(elapsed, 1e-9):,.0f} events/s ({elapsed:.2f}s)")
    return EXIT_OK


def _cmd_network(cfg: RunConfig, args) -> int:
    started = time.perf_counter()
    interactions, updates, stats = _projected(cfg)
    directory = authors_mod.AuthorDirectory(updates)
    g = graph_mod.build(interactions, extra_nodes=directory.first_update_times())
    build_elapsed = time.perf_counter() - started
    g.to_edge_csv(_out(cfg, "edges.csv"), header_comment=f"config_hash={cfg.config_hash()}")
    rows = ((t, n, size, f"{share:.10f}") for t, n, size, share in graph_mod.largest_wcc_share_series(g))
    columns = ("time", "activated", "largest_size", "share")
    _write_csv(_out(cfg, "wcc_share.csv"), columns, rows, f"config_hash={cfg.config_hash()}")
    scc = g.scc_snapshot()
    summary = {
        "edges": g.n_edges,
        "activated_nodes": g.activated_count(),
        "largest_wcc_share": g.largest_wcc_share() if g.activated_count() else None,
        "scc_sizes_top10": scc[:10],
        "scc_count": len(scc),
        **stats,
    }
    _write_json(_out(cfg, "network_summary.json"), summary, cfg)
    print(f"network: {g.n_edges} edges over {g.activated_count()} activated authors")
    print(f"throughput: {stats['events_kept'] / max(build_elapsed, 1e-9):,.0f} events/s ({build_elapsed:.2f}s)")
    return EXIT_OK


def _cmd_initiations(cfg: RunConfig, args) -> int:
    interactions, _, _ = _projected(cfg)
    inits = init_mod.initiations_from_interactions(interactions)
    vocab = interactions.vocab
    init_mod.write_initiations_csv(
        _out(cfg, "initiations.csv"),
        inits,
        label=lambda code: vocab.authors.id(int(code)),
        header_comment=f"config_hash={cfg.config_hash()}",
    )
    if inits:
        stats = init_mod.timeline_stats(inits, cfg.timeline_window, start=cfg.window_start)
        _write_json(_out(cfg, "timeline.json"), stats.to_json_dict(), cfg)
    else:
        _write_json(_out(cfg, "timeline.json"), {"windows": {}, "overall": None}, cfg)
    print(f"initiations: {len(inits)} classified")
    return EXIT_OK


def _cmd_authors(cfg: RunConfig, args) -> int:
    if not cfg.updates:
        raise ValueError("this subcommand needs --updates (or the updates config key)")
    updates, _ = load_updates(cfg.updates, cfg.format)
    directory = _directory(cfg, updates)
    directory.to_csv(_out(cfg, "authors.csv"), header_comment=f"config_hash={cfg.config_hash()}")
    print(f"authors: {len(list(directory.authors()))} aggregated")
    return EXIT_OK


def _classified(cfg: RunConfig):
    """The projected log, its author directory, its graph (authors active from their first update) and initiations."""
    interactions, updates, _ = _projected(cfg)
    directory = _directory(cfg, updates)
    g = graph_mod.build(interactions, extra_nodes=directory.first_update_times())
    return interactions, directory, g, init_mod.initiations_from_interactions(g)


def _cmd_features(cfg: RunConfig, args) -> int:
    interactions, directory, g, inits = _classified(cfg)
    names = choices_mod.feature_names(cfg.include_state)
    kept, X = choices_mod.initiation_features(inits, g, directory, cfg.include_state)
    label = interactions.vocab.authors.id
    rows = (
        [label(a), label(b), t, *(f"{v:.10g}" for v in x)]
        for a, b, t, x in zip(*kept.endpoints(), kept.time.tolist(), X.tolist())
    )
    columns = ("initiator", "receiver", "time", *names)
    _write_csv(_out(cfg, "features.csv"), columns, rows, f"config_hash={cfg.config_hash()}")
    print(f"features: {len(kept)} rows ({len(inits) - len(kept)} receivers not yet active)")
    return EXIT_OK


def _cmd_sample(cfg: RunConfig, args) -> int:
    interactions, directory, g, inits = _classified(cfg)
    sampler = choices_mod.SamplerConfig(n_negatives=cfg.negatives, seed=derive_seed(cfg.seed, STAGE_SAMPLE))
    instances, skipped = choices_mod.build_choice_sets(inits, g, directory, sampler, cfg.include_state)
    skip_reasons: dict[str, int] = {}
    for s in skipped:
        skip_reasons[s.reason] = skip_reasons.get(s.reason, 0) + 1
    meta = {
        "config_hash": cfg.config_hash(),
        "feature_names": list(choices_mod.feature_names(cfg.include_state)),
        "n_negatives": cfg.negatives,
        "skipped": skip_reasons,
    }
    label = interactions.vocab.authors.id
    choices_mod.write_choice_sets(_out(cfg, "choices.jsonl"), instances, meta=meta, label=label)
    _write_json(
        _out(cfg, "sample_summary.json"),
        {"instances": len(instances), "skipped": skip_reasons, "initiations": len(inits)},
        cfg,
    )
    print(f"sample: {len(instances)} choice sets ({len(skipped)} skipped)")
    return EXIT_OK


def _write_model(cfg: RunConfig, stem: str, fit, payload: dict) -> None:
    """Write ``<stem>.json`` and the ``<stem>.txt`` coefficient table, and print the table."""
    table = fit.text_table()
    _write_json(_out(cfg, f"{stem}.json"), payload, cfg)
    Path(_out(cfg, f"{stem}.txt")).write_text(f"config_hash={cfg.config_hash()}\n" + table, encoding="utf-8")
    print(table)


def _cmd_fit_mnl(cfg: RunConfig, args) -> int:
    instances, _ = choices_mod.read_choice_sets(args.choices)
    if not instances:
        raise ValueError(f"no choice instances in {args.choices}")
    window = None
    if cfg.window_start is not None and cfg.window_end is not None:
        window = (cfg.window_start, cfg.window_end)
    train, test = choices_mod.temporal_split(instances, cfg.train_frac, window=window)
    if not train:
        raise ValueError("temporal split left no training instances")
    fit = estimators.mnl_fit(train, tol=cfg.tol, max_iter=cfg.max_iter)
    payload = fit.to_json_dict()
    payload["n_train"] = len(train)
    payload["n_test"] = len(test)
    if test:
        payload["test_accuracy"] = estimators.mnl_accuracy(fit, test)
    _write_model(cfg, "model_mnl", fit, payload)
    if test:
        print(f"test accuracy: {payload['test_accuracy']:.4f} over {len(test)} instances")
    return EXIT_OK


def _read_columns(path, required) -> dict:
    """Every column of a CSV file as floats; an empty cell is NaN."""
    lines, cells = _csv_columns(path, required)
    columns = {}
    for name, texts in cells.items():
        values = columns[name] = np.empty(len(texts))
        for i, (line, text) in enumerate(zip(lines, texts)):
            try:
                values[i] = float(text) if text != "" else float("nan")
            except ValueError:
                raise SchemaError(f"not a number: {text!r}", line=line, field=name) from None
    return columns


def _fit_glm(cfg: RunConfig, args, fit_fn, stem: str) -> int:
    terms = [t.strip() for t in args.features.split(",") if t.strip()]
    columns = _read_columns(args.data, [args.outcome, *(part for t in terms for part in t.split(":"))])
    X, names = estimators.design_matrix(columns, terms, add_intercept=not args.no_intercept)
    y = columns[args.outcome]
    if not np.isfinite(X).all() or not np.isfinite(y).all():
        raise ValueError("model data contains missing or non-finite values")
    fit = fit_fn(X, y, feature_names=names)
    payload = fit.to_json_dict()
    if stem == "model_ols" and getattr(args, "drop", None):
        dropped = {t.strip() for t in args.drop.split(",") if t.strip()}
        unknown = dropped - set(names)
        if unknown:
            raise ValueError(f"--drop columns not in the model: {sorted(unknown)}")
        kept = [t for t in terms if t not in dropped]
        X_red, names_red = estimators.design_matrix(columns, kept, add_intercept=not args.no_intercept)
        reduced = fit_fn(X_red, y, feature_names=names_red)
        anova = estimators.f_test_nested(fit, reduced)
        payload["anova"] = anova.to_json_dict()
        payload["anova"]["dropped"] = sorted(dropped)
    _write_model(cfg, stem, fit, payload)
    if "anova" in payload:
        a = payload["anova"]
        print(f"nested F test dropping {','.join(a['dropped'])}: "
              f"F={a['statistic']:.4f} df={tuple(a['df'])} p={a['p_value']:.4g}")
    return EXIT_OK


def _cmd_fit_logit(cfg: RunConfig, args) -> int:
    return _fit_glm(cfg, args, partial(estimators.logistic_fit, tol=cfg.tol, max_iter=cfg.max_iter), "model_logit")


def _cmd_fit_ols(cfg: RunConfig, args) -> int:
    return _fit_glm(cfg, args, estimators.ols_fit, "model_ols")


def _cmd_bbse(cfg: RunConfig, args) -> int:
    _, holdout = _csv_columns(args.holdout, ("prediction", "label"), exact=True)
    line, marginal = _json_file(args.target_marginal)
    if not isinstance(marginal, list) or not all(type(v) in (int, float) for v in marginal):
        raise SchemaError("expected a JSON list of numbers", line=line)
    for k, v in enumerate(marginal):
        if not _finite(v):
            raise SchemaError(f"entry {k} of the list is not a finite number", line=line)
    confusion = labelshift.confusion_from_holdout(holdout["prediction"], holdout["label"])
    estimate = labelshift.estimate_shift(confusion, marginal)
    payload = estimate.to_json_dict()
    payload["n_holdout"] = confusion.n_holdout
    _write_json(_out(cfg, "bbse.json"), payload, cfg)
    corrected = ", ".join(f"{c}={q:.4f}" for c, q in zip(estimate.classes, estimate.corrected))
    print(f"bbse: corrected priors {corrected}")
    return EXIT_OK


def _finite(value) -> bool:
    """Whether ``value`` converts to a finite float; an int too large for one does not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _cmd_kappa(cfg: RunConfig, args) -> int:
    _, labels = _csv_columns(args.labels, ("rater_a", "rater_b"), exact=True)
    a, b = labels["rater_a"], labels["rater_b"]
    kappa = authors_mod.cohens_kappa(a, b)
    _write_json(_out(cfg, "kappa.json"), {"kappa": kappa, "n_items": len(a)}, cfg)
    print(f"kappa: {kappa:.6f} over {len(a)} items")
    return EXIT_OK


def _cmd_synth(cfg: RunConfig, args) -> int:
    beta = tuple(float(b) for b in args.beta.split(","))
    names = tuple(t.strip() for t in args.synth_features.split(",") if t.strip())
    config = choices_mod.SynthConfig(
        beta_true=beta,
        n_authors=args.n_authors,
        n_choices=args.n_choices,
        candidate_pool_size=args.pool,
        seed=derive_seed(cfg.seed, STAGE_SYNTH),
        feature_names=names,
    )
    instances, _ = choices_mod.synth_generate(config)
    meta = {"config_hash": cfg.config_hash(), "beta_true": list(beta), "feature_names": list(names)}
    choices_mod.write_choice_sets(_out(cfg, "synth_choices.jsonl"), instances, meta=meta)
    _write_json(
        _out(cfg, "synth_truth.json"),
        {"beta_true": list(beta), "feature_names": list(names),
         "n_authors": args.n_authors, "n_choices": args.n_choices, "pool": args.pool},
        cfg,
    )
    print(f"synth: {len(instances)} choices over {args.n_authors} authors")
    return EXIT_OK


def _cmd_report(cfg: RunConfig, args) -> int:
    inits = init_mod.read_initiations_csv(args.initiations_csv)
    payload: dict = {"n_initiations": len(inits)}
    lines = [f"initiations            {len(inits)}"]
    if inits:
        overall = init_mod.timeline_stats(inits, cfg.timeline_window).overall
        payload["type_counts"] = {k.value: v for k, v in overall.counts.items()}
        payload["type_shares"] = {k.value: v for k, v in overall.shares.items()}
        payload["reciprocal_share"] = overall.reciprocal_share
        payload["bridging_or_isolates_share"] = overall.bridging_or_isolates_share
        payload["joining_component_isolate_share"] = overall.joining_component_isolate_share
        for itype in init_mod.InitiationType:
            lines.append(f"  {itype.value:<22} {overall.counts[itype]:>8}  ({overall.shares[itype]:.4%})")
        lines.append(f"reciprocal share       {overall.reciprocal_share:.4%}")
        lines.append(f"bridging+isolates      {overall.bridging_or_isolates_share:.4%}")
        if overall.joining_component_isolate_share is not None:
            lines.append(f"joining started by isolate {overall.joining_component_isolate_share:.4%}")
    if args.authors_csv:
        _, table = _csv_columns(args.authors_csv, ("author_id",), optional=("state",))
        states = {author: state for author, state in zip(table["author_id"], table["state"]) if state}
        both = [(states.get(str(a)), states.get(str(b))) for a, b in zip(*inits.endpoints())]
        assigned = [(a, b) for a, b in both if a and b]
        if assigned:
            same = sum(a == b for a, b in assigned)
            payload["state_assigned_pairs"] = len(assigned)
            payload["same_state_share"] = same / len(assigned)
            lines.append(f"state-assigned pairs   {len(assigned)}")
            lines.append(f"same-state share       {same / len(assigned):.4%}")
        else:
            payload["same_state_share"] = None
            lines.append("same-state share       unavailable (no state-assigned pairs)")
    else:
        payload["same_state_share"] = None
        lines.append("same-state share       unavailable (no author table)")
    models = []
    for fit_path in args.fits:
        line, obj = _json_file(fit_path)
        if not isinstance(obj, dict):
            raise SchemaError("expected a JSON object", line=line)
        try:
            table = estimators.FitResult.from_json_dict(obj).text_table()
        except KeyError as exc:
            raise SchemaError("missing key", line=line, field=exc.args[0]) from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"not a model: {exc}", line=line) from None
        name = os.path.basename(fit_path)
        models.append({"name": name, "model": obj})
        lines.append("")
        lines.append(f"model: {name}")
        lines.append(table)
    payload["models"] = models
    _write_json(_out(cfg, "report.json"), payload, cfg)
    text = "\n".join(lines) + "\n"
    Path(_out(cfg, "report.txt")).write_text(f"config_hash={cfg.config_hash()}\n" + text, encoding="utf-8")
    print(text)
    return EXIT_OK


_DISPATCH = {
    "ingest": _cmd_ingest,
    "project": _cmd_project,
    "network": _cmd_network,
    "initiations": _cmd_initiations,
    "authors": _cmd_authors,
    "features": _cmd_features,
    "sample": _cmd_sample,
    "fit-mnl": _cmd_fit_mnl,
    "fit-logit": _cmd_fit_logit,
    "fit-ols": _cmd_fit_ols,
    "bbse": _cmd_bbse,
    "kappa": _cmd_kappa,
    "synth": _cmd_synth,
    "report": _cmd_report,
}

# Every setting a flag can override; a setting with no flag stays None in args.
_CONFIG_OVERRIDE_KEYS = tuple(f.name for f in fields(RunConfig))


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    overrides = {key: getattr(args, key, None) for key in _CONFIG_OVERRIDE_KEYS}
    if overrides.get("threads") is None:
        env_threads = os.environ.get("NETCHOICE_THREADS")
        if env_threads is not None:
            try:
                overrides["threads"] = int(env_threads)
            except ValueError:
                print(f"error: NETCHOICE_THREADS={env_threads!r} is not an integer", file=sys.stderr)
                return EXIT_VALIDATION
    try:
        cfg = load_config(args.config, overrides)
        return _DISPATCH[args.command](cfg, args)
    except (estimators.NumericalError, labelshift.IllConditionedError,
            np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (SchemaError, UnresolvedAmpError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
