"""Experiment configuration, seeded Monte Carlo execution and CSV output.

Configs are flat key = value text documents with units spelled out in the key
names. Per-trial randomness is derived from the master seed and the trial and
SNR indices through numpy SeedSequence spawn keys, so parallel and serial runs
produce identical results. Channel realizations are keyed on the trial index
alone, and probes and noise on (SNR index, trial), so every variant of a trial
sees the same channel, probes and noise (paired comparison). The trials split
into chunks of consecutive trials, as evenly over the workers as the bytes of a
trial's probe blocks allow (plan_chunks), and no record depends on the split.
The calling process is worker 0; each other worker is forked for the call.
Each variant's streams of a chunk are stacked on (trial, SNR point) axes.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import hashlib
import math
import multiprocessing
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .channel import NOISE_VARIANCE, PATH_GAIN, ArrayConfig, ChannelParams, ChannelRealization, sample_channel
from .evaluation import MetricConfig, dpsk_noise, dpsk_ser_trial, normalized_correlation
from .evaluation import spectral_efficiency, spectral_efficiency_bound
from .protocol import EstimatedBeamformers, HybridFrontEnd, ProtocolConfig, TrackerSpec
from .protocol import ProbeBlock, draw_probes, make_front_end, run_protocol


class ConfigError(ValueError):
    """Raised for unparseable or invalid experiment configuration."""


ORACLE = "oracle"


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


@dataclass(frozen=True)
class ExperimentConfig:
    """One field per config key, in canonical order, with its documented paper-style default.

    A key's type is its default's: ints parse with int(s, 0), floats with float,
    and tuples as comma lists of the default's element type. Construction (also
    through dataclasses.replace) checks the keys, raising ConfigError, and builds
    the model objects below; variant_protocols holds each variant's protocol,
    None for the exact-SVD oracle, and front_end the hybrid variants' analog combiners.
    """

    n_bs: int = 100
    n_ms: int = 30
    element_spacing_wl: float = 0.5
    n_clusters: int = 5
    rays_per_cluster: tuple = (10,)  # one entry broadcasts to every cluster
    los_probability: float = 0.0
    cluster_angle_spread_deg: float = 5.0
    p_bs: int = 30
    p_ms: int = 30
    warmup: int = 10
    multiplexing_order: int = 1
    n_rf_bs: int = 20
    n_rf_ms: int = 10
    pastd_beta: float = 0.95
    ooja_delta: float = 0.01
    psk_order: int = 16
    n_data_symbols: int = 10_000
    snr_grid_db: tuple = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
    n_trials: int = 500
    master_seed: int = 1
    variants: tuple = ("pastd-fd", "ooja-fd", "pastd-hy", "ooja-hy", ORACLE)

    bs: ArrayConfig = field(init=False, repr=False, compare=False)
    ms: ArrayConfig = field(init=False, repr=False, compare=False)
    channel: ChannelParams = field(init=False, repr=False, compare=False)
    protocol: ProtocolConfig = field(init=False, repr=False, compare=False)
    metrics: MetricConfig = field(init=False, repr=False, compare=False)
    variant_protocols: tuple = field(init=False, repr=False, compare=False)
    front_end: HybridFrontEnd = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            self._build()
        except ValueError as exc:  # a ConfigError passes through with its message
            raise ConfigError(str(exc)) from None

    def _build(self):
        for f in fields(self):
            value = getattr(self, f.name, ())  # the model objects are not built yet
            entries = value if isinstance(value, tuple) else (value,)
            if not all(math.isfinite(x) for x in entries if isinstance(x, float)):
                raise ConfigError(f"{f.name}: non-finite value in {_fmt_value(value)!r}")
        if len(self.rays_per_cluster) == 1:
            object.__setattr__(self, "rays_per_cluster", self.rays_per_cluster * self.n_clusters)
        with _keys(n_elements="n_bs", spacing="element_spacing_wl"):
            bs = ArrayConfig(self.n_bs, self.element_spacing_wl)
        with _keys(n_elements="n_ms", spacing="element_spacing_wl"):
            ms = ArrayConfig(self.n_ms, self.element_spacing_wl)
        channel = ChannelParams(self.n_clusters, self.rays_per_cluster, self.los_probability,
                                self.cluster_angle_spread_deg)
        with _keys(m="multiplexing_order", beta="pastd_beta", delta="ooja_delta"):
            protocol = ProtocolConfig(p_bs=self.p_bs, p_ms=self.p_ms, warmup=self.warmup, m=self.multiplexing_order,
                                      n_rf_bs=self.n_rf_bs, n_rf_ms=self.n_rf_ms,
                                      tracker=TrackerSpec(beta=self.pastd_beta, delta=self.ooja_delta))
        metrics = MetricConfig(self.psk_order, self.n_data_symbols)
        try:  # the trial's rule, at the mean channel power E||H||^2 = n_bs n_ms PATH_GAIN
            _transmit_powers(self.snr_grid_db, self.n_ms, self.n_bs * self.n_ms * PATH_GAIN)
        except ValueError as exc:
            raise ConfigError(f"snr_grid_db: at the mean channel power, {exc}") from None
        if self.multiplexing_order > min(self.n_bs, self.n_ms):
            raise ConfigError("multiplexing_order must not exceed min(n_bs, n_ms)")
        if not (1 <= self.n_rf_bs <= self.n_bs and 1 <= self.n_rf_ms <= self.n_ms):
            raise ConfigError("n_rf_bs/n_rf_ms must be between 1 and the antenna counts")
        for key in ("snr_grid_db", "variants"):
            value = getattr(self, key)
            if len(set(value)) != len(value):
                raise ConfigError(f"{key}: duplicate entries in {_fmt_value(value)!r}")
        variant_protocols = []
        for name in self.variants:  # <tracker kind>-<mode>, checked by the objects it builds
            kind, _, mode = name.partition("-")
            try:
                variant_protocols.append(None if name == ORACLE else replace(
                    protocol, mode=mode, tracker=replace(protocol.tracker, kind=kind)))
            except ValueError as exc:
                raise ConfigError(f"variants: {name!r}: {exc}") from None
        if self.n_trials < 1:
            raise ConfigError(f"n_trials must be >= 1, got {self.n_trials}")
        if len(self.snr_grid_db) == 0:
            raise ConfigError("snr_grid_db must be nonempty")
        if len(self.variants) == 0:
            raise ConfigError("variants must be nonempty")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {self.master_seed}")
        for name, value in (("bs", bs), ("ms", ms), ("channel", channel), ("protocol", protocol),
                            ("metrics", metrics), ("variant_protocols", tuple(variant_protocols)),
                            ("front_end", make_front_end(bs, ms, protocol))):
            object.__setattr__(self, name, value)


@contextlib.contextmanager
def _keys(**key_of):
    """A ValueError whose message starts with a model field of key_of {field: key}, as a ConfigError naming its key."""
    try:
        yield
    except ValueError as exc:
        if (key := key_of.get(str(exc).split(" ", 1)[0])) is None:
            raise
        raise ConfigError(f"{key}: {exc}") from None


_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig) if f.init}


def _parse_value(default, text: str):
    """text as the type of the key's default: int(s, 0), float or the string as it is; a tuple is a
    comma list of such entries of its first entry's type, empty tokens skipped."""
    if isinstance(default, tuple):
        return tuple(_parse_value(default[0], tok.strip()) for tok in text.split(",") if tok.strip())
    return int(text, 0) if isinstance(default, int) else float(text) if isinstance(default, float) else text


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
        if key not in _DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _parse_value(_DEFAULTS[key], val)
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
    return ExperimentConfig(**_parse_document(text))


def _fmt_value(value) -> str:
    """A config value or CSV cell: floats to 17 significant digits, None as the empty cell."""
    if value is None:
        return ""
    if isinstance(value, tuple):
        return ",".join(_fmt_value(v) for v in value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def resolved_text(cfg: ExperimentConfig) -> str:
    """Canonical key = value rendering of a config with defaults materialized."""
    return "".join(f"{key} = {_fmt_value(getattr(cfg, key))}\n" for key in _DEFAULTS)


def config_digest(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(resolved_text(cfg).encode("utf-8")).hexdigest()[:16]


class _StreamFault(ValueError):
    """A check failed on the first failing stream of a stack: args are (message, flat stream index)."""


def _check_beams(beams: EstimatedBeamformers, shape: tuple) -> None:
    for name, d in (("d_ms", beams.d_ms), ("d_bs", beams.d_bs)):
        d = np.broadcast_to(d, shape + d.shape[-2:])
        norms = np.sqrt(np.vecdot(d, d, axis=-2).real)
        for i in np.flatnonzero(~np.all(np.abs(norms - 1.0) <= 1e-9, axis=-1))[:1]:  # NaN, inf too
            finite = np.all(np.isfinite(d[np.unravel_index(i, shape)]))
            raise _StreamFault(f"{name} {'is not unit norm' if finite else 'is not finite'}", i)


def _check_metrics(eta_u, eta_v, se, se_oracle) -> None:
    eta_u, eta_v, se, se_oracle = (np.ravel(x) for x in (eta_u, eta_v, se, se_oracle))
    valid = (0.0 <= eta_u) & (eta_u <= 1.0) & (0.0 <= eta_v) & (eta_v <= 1.0) & np.isfinite(se)
    for i in np.flatnonzero(~valid)[:1]:
        raise _StreamFault(f"invalid metrics: eta_u {eta_u[i]}, eta_v {eta_v[i]}, se {se[i]}", i)
    for i in np.flatnonzero(~(se <= se_oracle + 1e-9))[:1]:
        raise _StreamFault(f"spectral efficiency {se[i]} exceeds the oracle's {se_oracle[i]}", i)


def _transmit_powers(snr_grid_db, n_ms: int, h2: float) -> tuple:
    """p_t = 10^(x/10) n_ms sigma^2 / h2 at each SNR point x (1 if h2 <= 0) for ||H||^2 = h2;
    ValueError at the first point where p_t is 0 or p_t / sigma^2 is not finite."""
    p_ts = []
    for x in snr_grid_db:
        try:
            p_t = 10.0 ** (x / 10.0) * n_ms * NOISE_VARIANCE / h2 if h2 > 0 else 1.0
        except OverflowError:
            p_t = math.inf
        if not (p_t > 0.0 and math.isfinite(p_t / NOISE_VARIANCE)):
            fault = "p_t / sigma^2 is not finite" if p_t > 0.0 else "p_t is not > 0"
            raise ValueError(f"transmit power {p_t} at snr_db {x}: {fault} (||H||^2 = {h2})")
        p_ts.append(p_t)
    return tuple(p_ts)


# The largest chunk's drawn ProbeBlocks, in bytes: 3 trials at 100 x 30 (458 KB each), 17 at 16 x 8. A
# chunk pays the per-call cost of Python and numpy once for its B x n_snr streams but holds its blocks
# through every variant. At B = 1, 2, 3, 4, 6, `paper` ran 105, 148, 165, 173, 182 trials/s at 45.9, 46.5,
# 47.4, 48.4, 50.5 MB peak RSS and `mimo2` 111, 155, 171, 191, 203 at 45.5, 46.7, 47.6, 48.6, 50.9
# (BENCH_chunkbytes.json): B = 3 stays within 5% of B = 1's memory; more buys speed with memory.
CHUNK_BYTES = 1_500_000


def plan_chunks(cfg: ExperimentConfig, workers: int) -> tuple:
    """(chunks, width): the trials as k ranges of consecutive trials whose sizes differ by at
    most one, the first a largest, and the number of worker processes, the caller among them.
    k is the fewest multiple of the width, capped at n_trials, that keeps every chunk's drawn
    blocks within CHUNK_BYTES (a trial over it runs alone), so the trials split evenly over
    the workers. Records do not depend on the plan."""
    n = cfg.n_trials
    shapes = draw_probes([], cfg.protocol, cfg.bs.n_elements, cfg.ms.n_elements)  # no stream: the block shapes
    trial_bytes = len(cfg.snr_grid_db) * sum(a.itemsize * math.prod(a.shape[1:]) for b in shapes for a in b)
    width = max(1, min(workers, n))
    k = min(n, width * -(-n // (width * max(1, CHUNK_BYTES // trial_bytes))))
    edges = [-(-i * n // k) for i in range(k + 1)]  # ceil(i n / k)
    return tuple(map(range, edges, edges[1:])), width


def _chunk_records(cfg: ExperimentConfig, trials: range) -> list:
    """Each trial's records, in (variant, SNR) order, for a chunk of consecutive trials."""
    snrs = cfg.snr_grid_db
    n_bs, n_ms = cfg.bs.n_elements, cfg.ms.n_elements
    m = cfg.protocol.m
    chans, p_ts = [], []
    for t in trials:
        chan_rng = np.random.default_rng(np.random.SeedSequence(cfg.master_seed, spawn_key=(0, t)))
        try:
            chans.append(sample_channel(cfg.channel, cfg.bs, cfg.ms, chan_rng))
            p_ts.append(_transmit_powers(snrs, n_ms, float(np.linalg.norm(chans[-1].h) ** 2)))
        except Exception as exc:
            raise RuntimeError(f"trial {t}, channel draw: {exc}") from exc
    powers = np.array(p_ts)  # (trial, SNR point)
    # the chunk's channels as one realization with axes (trial, 1, ...), broadcast over the SNR axis
    arrays = {k: np.stack([getattr(c, k) for c in chans])[:, None] for k in ("h", "u", "sigma", "v")}
    chunk = ChannelRealization(**arrays, rays=tuple(c.rays for c in chans))
    bounds = spectral_efficiency_bound(chunk.sigma[..., :m], powers, NOISE_VARIANCE)  # the oracle's rates
    # each trial's realization as views of the chunk's, so that the channels are held once
    chans = [ChannelRealization(*(a[b, 0] for a in arrays.values()), c.rays) for b, c in enumerate(chans)]
    oracle = EstimatedBeamformers(d_ms=chunk.u[..., :m], d_bs=chunk.v[..., :m])

    # one stream per (trial, SNR point), shared by every variant (common random numbers):
    # each generator draws phase (a)'s block, phase (b)'s block, then the DPSK noise (below)
    shape = (len(trials), len(snrs))
    seqs = [[np.random.SeedSequence(cfg.master_seed, spawn_key=(1, si, t)) for si in range(len(snrs))]
            for t in trials]
    seeds = [[int(seq.generate_state(1)[0]) for seq in row] for row in seqs]
    rngs = [np.random.default_rng(seq) for row in seqs for seq in row]  # in (trial, SNR) order
    probes = tuple(ProbeBlock(*(a.reshape(shape + a.shape[1:]) for a in block))
                   for block in draw_probes(rngs, cfg.protocol, n_bs, n_ms))

    # every tracker variant in one call, which forms phase (a) once for all of them
    tracked = {name: protocol for name, protocol in zip(cfg.variants, cfg.variant_protocols) if protocol is not None}
    beams_of = {}
    if tracked:
        with _named(tuple(tracked), trials, snrs, seeds):
            beams = run_protocol(chunk, tuple(tracked.values()), cfg.front_end, NOISE_VARIANCE, probes, powers)
            beams_of = dict(zip(tracked, beams))
    tables = {}  # each variant's beams and eta_u, eta_v, se_bits, ser (None unless DPSK) per (trial, SNR point)
    for name in cfg.variants:
        with _named((name,), trials, snrs, seeds):
            beams = beams_of.get(name, oracle)  # the oracle's: one pair per trial, at every power
            _check_beams(beams, shape)  # before scoring: a zero-norm column fails it for all
            se = spectral_efficiency(chunk.h, beams.d_ms, beams.d_bs, powers, NOISE_VARIANCE)
            eta_u = np.broadcast_to(normalized_correlation(chunk.u[..., 0], beams.d_ms[..., 0]), shape)
            eta_v = np.broadcast_to(normalized_correlation(chunk.v[..., 0], beams.d_bs[..., 0]), shape)
            _check_metrics(eta_u, eta_v, se, bounds)
        tables[name] = beams, np.stack([eta_u, eta_v, se, np.full(shape, None)], axis=-1)

    # DPSK one trial at a time, after every variant's probing: each generator's last draw is
    # its noise, and a trial's noise and DPSK arrays (n_snr x n_data_symbols) are all that is held
    for b, (t, chan) in enumerate(zip(trials, chans) if m == 1 else ()):
        mcfg = replace(cfg.metrics, p_t_bs=p_ts[b])
        noise = dpsk_noise(rngs[b * len(snrs):(b + 1) * len(snrs)], cfg.metrics.n_data_symbols)
        for name, (beams, table) in tables.items():
            with _named((name,), (t,), snrs, seeds[b:b + 1]):
                trial_beams = EstimatedBeamformers(beams.d_ms[b], beams.d_bs[b])
                table[b, :, 3] = dpsk_ser_trial(chan, trial_beams, mcfg, NOISE_VARIANCE, noise)

    return [[TrialRecord(t, name, snr_db, *row, seed) for name, (_, table) in tables.items()
             for snr_db, row, seed in zip(snrs, table[b].tolist(), seeds[b])] for b, t in enumerate(trials)]


@contextlib.contextmanager
def _named(variants: tuple, trials, snrs, seeds):
    """Re-raise an error as a RuntimeError naming a _StreamFault's stream, else every stream of the call."""
    def where(variant, t, snr_db, seed_used):
        return f"trial {t}, variant {variant}, snr_db {snr_db}, seed_used {seed_used}"

    try:
        yield
    except _StreamFault as exc:  # a check, which scores one variant, names the stream it failed on
        fault, i = exc.args
        b, si = divmod(i, len(snrs))
        raise RuntimeError(f"{where(variants[0], trials[b], snrs[si], seeds[b][si])}: {fault}") from exc
    except Exception as exc:  # a stacked call's failure is not one stream's: it names them all
        stack = "; ".join(where(v, t, snrs, seeds_t) for v in variants for t, seeds_t in zip(trials, seeds))
        raise RuntimeError(f"{stack}: {exc}") from exc


@functools.cache
def _openblas():
    """numpy's bundled scipy-openblas through ctypes, with scipy_openblas_set_num_threads64_
    declared, or None when numpy links another BLAS."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(path)  # the copy numpy already loaded, so its thread count
            set_threads = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        return lib
    return None


def _share_records(cfg: ExperimentConfig, share: tuple) -> list | tuple:
    """A worker's chunks in order: their records, or (position in share, exception) at the first that fails."""
    done = []
    for trials in share:
        try:
            done.append(_chunk_records(cfg, trials))
        except Exception as exc:  # run_experiment raises the lowest-numbered chunk's error
            return len(done), exc
    return done


def _send_share(conn, cfg: ExperimentConfig, share: tuple) -> None:
    """A forked worker: _share_records, sent on its one-way pipe."""
    conn.send(_share_records(cfg, share))


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> list:
    """All trial records for a config, ordered by (variant, SNR, trial).

    Chunk j of plan_chunks(cfg, workers) runs on worker j % width: worker 0 is
    the caller, and each other is forked once and sends its records on a pipe.
    No record's bytes depend on the plan or the width. Every fork is joined;
    then the lowest-numbered failing chunk's error is raised, and a worker that
    exits without sending fails its first chunk with a RuntimeError naming it,
    its trials and its exit code. It first sets numpy's bundled OpenBLAS to one
    thread, and leaves it there (any other BLAS is left alone): a trial's small
    products gain little from a second thread, which spins between calls, and
    the forked workers inherit the count. Record bytes do not depend on it.
    """
    lib = _openblas()
    if lib is not None:
        lib.scipy_openblas_set_num_threads64_(1)
    chunks, width = plan_chunks(cfg, workers)
    shares = [chunks[w::width] for w in range(width)]
    fork = multiprocessing.get_context("fork")
    outcomes, forked = [], []  # forked: each forked worker's (read end, process)
    try:
        for share in shares[1:]:  # each pipe is made just before its fork, so no other child holds its write end
            recv, send = fork.Pipe(duplex=False)
            (child := fork.Process(target=_send_share, args=(send, cfg, share))).start()
            forked.append((recv, child))
            send.close()  # the child holds the only write end, so its exit ends the pipe
        outcomes.append(_share_records(cfg, shares[0]))
        for w, (recv, child) in enumerate(forked, start=1):
            try:
                outcomes.append(recv.recv())
            except (EOFError, OSError):  # the pipe ended without a whole message
                child.join()
                outcomes.append((0, RuntimeError(f"worker {w} (trials {[t for c in shares[w] for t in c]}) "
                                                 f"exited with code {child.exitcode} before sending its records")))
    finally:
        for recv, child in forked:
            if len(outcomes) < width:  # interrupted before every share came back: the rest is not needed
                child.kill()
            child.join()
            recv.close()
    failed = [(w + outcome[0] * width, w) for w, outcome in enumerate(outcomes) if isinstance(outcome, tuple)]
    if failed:
        raise outcomes[min(failed)[1]][1]
    per_trial = [records for j in range(len(chunks)) for records in outcomes[j % width][j // width]]
    # each trial lists its records in (variant, SNR) order: the k-th of every trial, in trial order
    return [rec for same_k in zip(*per_trial) for rec in same_k]


_QUANTILES = (0.10, 0.25, 0.75, 0.90)


def _stats_cells(series) -> list:
    """Each value list's mean, median and _QUANTILES as cells, empty for an empty list. The lists
    of one length are the rows of one array, reduced along each row as a lone list is."""
    cells = [[""] * (2 + len(_QUANTILES))] * len(series)
    by_size = {}
    for i, values in enumerate(series):
        if values:
            by_size.setdefault(len(values), []).append(i)
    for rows in by_size.values():
        arr = np.array([series[i] for i in rows], dtype=float)
        stats = np.vstack([arr.mean(axis=-1), np.median(arr, axis=-1), np.quantile(arr, _QUANTILES, axis=-1)])
        for i, column in zip(rows, stats.T.tolist()):
            cells[i] = [_fmt_value(x) for x in column]
    return cells


def emit_csv(records, destination) -> None:
    """Write records.csv and per-(variant, SNR) aggregates.csv under destination."""
    if not records:
        raise ValueError("no records to emit")
    os.makedirs(destination, exist_ok=True)

    with open(os.path.join(destination, "records.csv"), "w", encoding="utf-8") as fh:
        fh.write("trial,variant,snr_db,eta_u,eta_v,se_bits,ser,seed\n")
        for r in records:
            fh.write(
                f"{r.trial_index},{r.variant},{_fmt_value(r.snr_db)},"
                f"{_fmt_value(r.eta_u)},{_fmt_value(r.eta_v)},"
                f"{_fmt_value(r.spectral_eff_bits)},{_fmt_value(r.ser)},{r.seed_used}\n"
            )

    groups = {}
    for r in records:
        groups.setdefault((r.variant, r.snr_db), []).append(r)
    metric_names = ("eta_u", "eta_v", "se_bits", "ser")
    stat_names = ("mean", "median") + tuple(f"q{int(q * 100)}" for q in _QUANTILES)
    header = ["variant", "snr_db", "n"]
    header += [f"{m}_{s}" for m in metric_names for s in stat_names]
    series = [[x for g in group if (x := getattr(g, name)) is not None]
              for group in groups.values() for name in ("eta_u", "eta_v", "spectral_eff_bits", "ser")]
    cells = iter(_stats_cells(series))
    with open(os.path.join(destination, "aggregates.csv"), "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for (variant, snr_db), group in groups.items():
            row = [variant, _fmt_value(snr_db), str(len(group))] + [c for _ in metric_names for c in next(cells)]
            fh.write(",".join(row) + "\n")
