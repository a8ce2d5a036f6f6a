"""Experiment configuration, seeded Monte Carlo execution and CSV output.

Configs are flat key = value text documents with units spelled out in the key
names. Per-trial randomness is derived from the master seed and the trial and
SNR indices through numpy SeedSequence spawn keys, so parallel and serial runs
produce identical results. Channel realizations are keyed on the trial index
alone, and probes and noise on (SNR index, trial), so every variant of a trial
sees the same channel, probes and noise (paired comparison).
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from .channel import (
    ArrayConfig,
    ChannelParams,
    LogDistancePathLoss,
    noise_variance,
    sample_channel,
)
from .evaluation import MetricConfig, dpsk_noise, dpsk_ser_trial, normalized_correlation
from .evaluation import spectral_efficiency, spectral_efficiency_bound
from .protocol import (
    MODE_FD,
    MODE_HY,
    TRACKER_OOJA,
    TRACKER_PASTD,
    EstimatedBeamformers,
    ProtocolConfig,
    TrackerSpec,
    draw_probes,
    make_front_end,
    run_protocol,
)


class ConfigError(ValueError):
    """Raised for unparseable or invalid experiment configuration."""


ORACLE = "oracle"


@dataclass(frozen=True)
class Variant:
    """One variant to evaluate, e.g. pastd-hy, with the protocol it runs.

    The protocol is None for the exact-SVD oracle baseline.
    """

    name: str
    protocol: ProtocolConfig | None


@dataclass(frozen=True)
class TrialRecord:
    trial_index: int
    variant: str
    snr_db: float
    eta_u: float
    eta_v: float
    spectral_eff_bits: float
    ser: float | None
    seed_used: int
    config_digest: str


@dataclass(frozen=True)
class ExperimentConfig:
    bs: ArrayConfig
    ms: ArrayConfig
    channel: ChannelParams
    protocol: ProtocolConfig
    metrics: MetricConfig
    snr_grid_db: tuple
    n_trials: int
    master_seed: int
    variants: tuple

    def __post_init__(self):
        if self.n_trials < 1:
            raise ConfigError(f"n_trials must be >= 1, got {self.n_trials}")
        if len(self.snr_grid_db) == 0:
            raise ConfigError("snr_grid_db must be nonempty")
        if len(self.variants) == 0:
            raise ConfigError("variants must be nonempty")


def _parse_int(s):
    return int(s, 0)


def _list_of(item):
    """Parser for a comma-separated list; empty tokens are skipped."""
    return lambda s: tuple(item(tok.strip()) for tok in s.split(",") if tok.strip())


# key -> (parser, default, getter). Defaults are the documented paper-style
# setup; the getter reads the key's value back off a built ExperimentConfig.
_SCHEMA = {
    "n_bs": (_parse_int, 100, lambda c: c.bs.n_elements),
    "n_ms": (_parse_int, 30, lambda c: c.ms.n_elements),
    "element_spacing_wl": (float, 0.5, lambda c: c.bs.spacing),
    "n_clusters": (_parse_int, 5, lambda c: c.channel.n_clusters),
    "rays_per_cluster": (_list_of(int), (10,), lambda c: tuple(c.channel.rays_per_cluster)),
    "carrier_freq_ghz": (float, 73.0, lambda c: c.channel.carrier_freq_hz / 1e9),
    "link_distance_m": (float, 50.0, lambda c: c.channel.link_distance_m),
    "los_probability": (float, 0.0, lambda c: c.channel.los_probability),
    "path_loss_intercept_db": (float, 72.0, lambda c: c.channel.path_loss_model.intercept_db),
    "path_loss_exponent": (float, 2.92, lambda c: c.channel.path_loss_model.exponent),
    "cluster_angle_spread_deg": (float, 5.0, lambda c: c.channel.cluster_angle_spread_deg),
    "noise_psd_dbm_hz": (float, -174.0, lambda c: c.channel.noise_psd_dbm_hz),
    "noise_figure_db": (float, 3.0, lambda c: c.channel.noise_figure_db),
    "bandwidth_mhz": (float, 500.0, lambda c: c.channel.bandwidth_hz / 1e6),
    "p_bs": (_parse_int, 30, lambda c: c.protocol.p_bs),
    "p_ms": (_parse_int, 30, lambda c: c.protocol.p_ms),
    "warmup": (_parse_int, 10, lambda c: c.protocol.warmup),
    "multiplexing_order": (_parse_int, 1, lambda c: c.protocol.m),
    "n_rf_bs": (_parse_int, 20, lambda c: c.protocol.n_rf_bs),
    "n_rf_ms": (_parse_int, 10, lambda c: c.protocol.n_rf_ms),
    "pastd_beta": (float, 0.95, lambda c: c.protocol.tracker.beta),
    "ooja_delta": (float, 0.01, lambda c: c.protocol.tracker.delta),
    "ooja_sign": (_parse_int, 1, lambda c: c.protocol.tracker.sign),
    "psk_order": (_parse_int, 16, lambda c: c.metrics.psk_order),
    "n_data_symbols": (_parse_int, 10_000, lambda c: c.metrics.n_data_symbols),
    "p_t_bs": (float, 1.0, lambda c: c.metrics.p_t_bs),
    "snr_grid_db": (
        _list_of(float), (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0), lambda c: tuple(c.snr_grid_db)
    ),
    "n_trials": (_parse_int, 500, lambda c: c.n_trials),
    "master_seed": (_parse_int, 1, lambda c: c.master_seed),
    "variants": (
        _list_of(str),
        ("pastd-fd", "ooja-fd", "pastd-hy", "ooja-hy", "oracle"),
        lambda c: tuple(v.name for v in c.variants),
    ),
}


def _parse_variant(token: str, protocol: ProtocolConfig) -> Variant:
    if token == ORACLE:
        return Variant(name=token, protocol=None)
    algorithm, _, mode = token.partition("-")
    if algorithm not in (TRACKER_PASTD, TRACKER_OOJA) or mode not in (MODE_FD, MODE_HY):
        raise ConfigError(
            f"variants: unknown variant {token!r} (expected pastd-fd, pastd-hy, "
            f"ooja-fd, ooja-hy or oracle)"
        )
    tracker = replace(protocol.tracker, kind=algorithm)
    return Variant(name=token, protocol=replace(protocol, mode=mode, tracker=tracker))


def _parse_document(text: str) -> dict:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        parser, _, _ = _SCHEMA[key]
        try:
            values[key] = parser(val)
        except ValueError as exc:
            raise ConfigError(f"{key}: cannot parse {val!r} ({exc})") from None
    return values


def load_config(source) -> ExperimentConfig:
    """Build a fully validated ExperimentConfig from an os.PathLike path or from str text."""
    text = source
    if isinstance(source, os.PathLike):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {os.fspath(source)!r}: {exc}") from None
    values = _parse_document(text)
    resolved = {key: values.get(key, default) for key, (_, default, _) in _SCHEMA.items()}

    rays = resolved["rays_per_cluster"]
    if len(rays) == 1:
        rays = rays * resolved["n_clusters"]

    try:
        bs = ArrayConfig(resolved["n_bs"], resolved["element_spacing_wl"])
        ms = ArrayConfig(resolved["n_ms"], resolved["element_spacing_wl"])
        channel = ChannelParams(
            n_clusters=resolved["n_clusters"],
            rays_per_cluster=rays,
            carrier_freq_hz=resolved["carrier_freq_ghz"] * 1e9,
            link_distance_m=resolved["link_distance_m"],
            los_probability=resolved["los_probability"],
            path_loss_model=LogDistancePathLoss(
                resolved["path_loss_intercept_db"], resolved["path_loss_exponent"]
            ),
            cluster_angle_spread_deg=resolved["cluster_angle_spread_deg"],
            noise_psd_dbm_hz=resolved["noise_psd_dbm_hz"],
            noise_figure_db=resolved["noise_figure_db"],
            bandwidth_hz=resolved["bandwidth_mhz"] * 1e6,
        )
        protocol = ProtocolConfig(
            p_bs=resolved["p_bs"],
            p_ms=resolved["p_ms"],
            warmup=resolved["warmup"],
            m=resolved["multiplexing_order"],
            n_rf_bs=resolved["n_rf_bs"],
            n_rf_ms=resolved["n_rf_ms"],
            tracker=TrackerSpec(
                beta=resolved["pastd_beta"],
                delta=resolved["ooja_delta"],
                sign=resolved["ooja_sign"],
            ),
        )
        metrics = MetricConfig(
            psk_order=resolved["psk_order"],
            n_data_symbols=resolved["n_data_symbols"],
            p_t_bs=resolved["p_t_bs"],
        )
        if protocol.m > min(bs.n_elements, ms.n_elements):
            raise ConfigError("multiplexing_order must not exceed min(n_bs, n_ms)")
        if not (1 <= protocol.n_rf_bs <= bs.n_elements and 1 <= protocol.n_rf_ms <= ms.n_elements):
            raise ConfigError("n_rf_bs/n_rf_ms must be between 1 and the antenna counts")
        for key in ("snr_grid_db", "variants"):
            if len(set(resolved[key])) != len(resolved[key]):
                raise ConfigError(f"{key}: duplicate entries in {_fmt_value(resolved[key])!r}")
        return ExperimentConfig(
            bs=bs,
            ms=ms,
            channel=channel,
            protocol=protocol,
            metrics=metrics,
            snr_grid_db=resolved["snr_grid_db"],
            n_trials=resolved["n_trials"],
            master_seed=resolved["master_seed"],
            variants=tuple(_parse_variant(tok, protocol) for tok in resolved["variants"]),
        )
    except ValueError as exc:  # a ConfigError passes through with its message
        raise ConfigError(str(exc)) from None


def _fmt_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_fmt_value(v) for v in value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def resolved_text(cfg: ExperimentConfig) -> str:
    """Canonical key = value rendering of a config with defaults materialized."""
    return "".join(f"{key} = {_fmt_value(get(cfg))}\n" for key, (_, _, get) in _SCHEMA.items())


def config_digest(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(resolved_text(cfg).encode("utf-8")).hexdigest()[:16]


class _StreamFault(ValueError):
    """A check failed on the first failing stream of a stack: args are (message, stream index)."""


def _check_beams(beams: EstimatedBeamformers, n: int) -> None:
    for name, d in (("d_ms", beams.d_ms), ("d_bs", beams.d_bs)):
        d = np.broadcast_to(d, (n,) + d.shape[-2:])
        norms = np.sqrt(np.vecdot(d, d, axis=-2).real)
        for i in np.flatnonzero(~np.all(np.abs(norms - 1.0) <= 1e-9, axis=-1))[:1]:  # NaN, inf too
            fault = "is not finite" if not np.all(np.isfinite(d[i])) else "is not unit norm"
            raise _StreamFault(f"{name} {fault}", i)


def _check_metrics(eta_u, eta_v, se, se_oracle) -> None:
    valid = (0.0 <= eta_u) & (eta_u <= 1.0) & (0.0 <= eta_v) & (eta_v <= 1.0) & np.isfinite(se)
    for i in np.flatnonzero(~valid)[:1]:
        raise _StreamFault(f"invalid metrics: eta_u {eta_u[i]}, eta_v {eta_v[i]}, se {se[i]}", i)
    for i in np.flatnonzero(~(se <= se_oracle + 1e-9))[:1]:
        raise _StreamFault(f"spectral efficiency {se[i]} exceeds the oracle's {se_oracle[i]}", i)


def _trial_records(cfg: ExperimentConfig, trial_idx: int, digest: str) -> list:
    chan_rng = np.random.default_rng(
        np.random.SeedSequence(cfg.master_seed, spawn_key=(0, trial_idx))
    )
    chan = sample_channel(cfg.channel, cfg.bs, cfg.ms, chan_rng)
    sigma2 = noise_variance(cfg.channel)
    h2 = float(np.linalg.norm(chan.h) ** 2)
    m = cfg.protocol.m
    u1 = chan.u[:, 0]
    v1 = chan.v[:, 0]
    front = make_front_end(cfg.bs, cfg.ms, cfg.protocol)
    snrs = cfg.snr_grid_db
    rhos = [10.0 ** (x / 10.0) * cfg.ms.n_elements * sigma2 / h2 if h2 > 0 else 1.0 for x in snrs]
    p_ts = tuple(rho * cfg.metrics.p_t_bs for rho in rhos)
    oracle = EstimatedBeamformers(d_ms=chan.u[:, :m], d_bs=chan.v[:, :m])

    # one stream per SNR point, shared by every variant (common random numbers):
    # each generator draws phase (a)'s block, phase (b)'s block, then the DPSK noise
    seqs = [np.random.SeedSequence(cfg.master_seed, spawn_key=(1, si, trial_idx))
            for si in range(len(snrs))]
    seeds = [int(seq.generate_state(1)[0]) for seq in seqs]
    rngs = [np.random.default_rng(seq) for seq in seqs]
    probes = None
    if any(variant.protocol is not None for variant in cfg.variants):
        n_bs, n_ms = cfg.bs.n_elements, cfg.ms.n_elements
        probes = (draw_probes(rngs, cfg.protocol.p_bs, n_bs, n_ms),
                  draw_probes(rngs, cfg.protocol.p_ms, m, n_bs))
    noise = dpsk_noise(rngs, cfg.metrics.n_data_symbols) if m == 1 else None

    records = []
    for variant in cfg.variants:
        where = f"trial {trial_idx}, variant {variant.name}, snr_db {{}}, seed_used {{}}: {{}}"
        try:
            beams = oracle  # one pair of beams, scored at every power of the stack
            if variant.protocol is not None:
                pcfg = replace(variant.protocol, tx_power_scale=tuple(rhos))
                beams = run_protocol(chan, pcfg, front, sigma2, probes)
            _check_beams(beams, len(snrs))  # before scoring: a zero-norm column fails it for all
            se = spectral_efficiency(chan.h, beams.d_ms, beams.d_bs, p_ts, sigma2)
            eta_u = np.broadcast_to(normalized_correlation(u1, beams.d_ms[..., 0]), se.shape)
            eta_v = np.broadcast_to(normalized_correlation(v1, beams.d_bs[..., 0]), se.shape)
            _check_metrics(eta_u, eta_v, se, spectral_efficiency_bound(chan.sigma[:m], p_ts, sigma2))
            sers = [None] * len(snrs)
            if m == 1:
                mcfg = replace(cfg.metrics, p_t_bs=p_ts)
                sers = dpsk_ser_trial(chan, beams, mcfg, sigma2, noise).tolist()
        except _StreamFault as exc:  # a check names the stream it failed on
            fault, i = exc.args
            raise RuntimeError(where.format(snrs[i], seeds[i], fault)) from exc
        except Exception as exc:  # a stacked call's failure is not one stream's: it names them all
            raise RuntimeError(where.format(snrs, seeds, exc)) from exc
        records += [
            TrialRecord(trial_idx, variant.name, *row, digest)
            for row in zip(snrs, eta_u.tolist(), eta_v.tolist(), se.tolist(), sers, seeds)
        ]
    return records


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> list:
    """All trial records for a config, ordered by (variant, SNR, trial)."""
    digest = config_digest(cfg)
    trials = range(cfg.n_trials)
    if workers > 1:
        chunk = max(1, cfg.n_trials // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_trial = list(
                pool.map(_trial_records, repeat(cfg), trials, repeat(digest), chunksize=chunk)
            )
    else:
        per_trial = [_trial_records(cfg, t, digest) for t in trials]
    records = [rec for trial in per_trial for rec in trial]
    vidx = {v.name: i for i, v in enumerate(cfg.variants)}
    sidx = {s: i for i, s in enumerate(cfg.snr_grid_db)}
    records.sort(key=lambda r: (vidx[r.variant], sidx[r.snr_db], r.trial_index))
    return records


def _fmt_float(x) -> str:
    return "" if x is None else format(float(x), ".17g")


_QUANTILES = (0.10, 0.25, 0.75, 0.90)


def _stats_cells(values) -> list:
    values = [v for v in values if v is not None]
    if not values:
        return [""] * (2 + len(_QUANTILES))
    arr = np.asarray(values, dtype=float)
    stats = [arr.mean(), np.median(arr), *np.quantile(arr, _QUANTILES)]
    return [_fmt_float(x) for x in stats]


def emit_csv(records, destination) -> None:
    """Write records.csv and per-(variant, SNR) aggregates.csv under destination."""
    if not records:
        raise ValueError("no records to emit")
    os.makedirs(destination, exist_ok=True)

    with open(os.path.join(destination, "records.csv"), "w", encoding="utf-8") as fh:
        fh.write("trial,variant,snr_db,eta_u,eta_v,se_bits,ser,seed\n")
        for r in records:
            fh.write(
                f"{r.trial_index},{r.variant},{_fmt_float(r.snr_db)},"
                f"{_fmt_float(r.eta_u)},{_fmt_float(r.eta_v)},"
                f"{_fmt_float(r.spectral_eff_bits)},{_fmt_float(r.ser)},{r.seed_used}\n"
            )

    groups = {}
    for r in records:
        groups.setdefault((r.variant, r.snr_db), []).append(r)
    metric_names = ("eta_u", "eta_v", "se_bits", "ser")
    stat_names = ("mean", "median") + tuple(f"q{int(q * 100)}" for q in _QUANTILES)
    header = ["variant", "snr_db", "n"]
    header += [f"{m}_{s}" for m in metric_names for s in stat_names]
    with open(os.path.join(destination, "aggregates.csv"), "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for (variant, snr_db), group in groups.items():
            cells = [variant, _fmt_float(snr_db), str(len(group))]
            cells += _stats_cells([g.eta_u for g in group])
            cells += _stats_cells([g.eta_v for g in group])
            cells += _stats_cells([g.spectral_eff_bits for g in group])
            cells += _stats_cells([g.ser for g in group])
            fh.write(",".join(cells) + "\n")
