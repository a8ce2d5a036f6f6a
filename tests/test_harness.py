import math
import multiprocessing
import os
import platform
import random
import signal
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from mmwtrack import harness, protocol
from mmwtrack import (
    ConfigError,
    ExperimentConfig,
    config_digest,
    emit_csv,
    load_config,
    resolved_text,
    run_experiment,
)
from mmwtrack.cli import main as cli_main

SMALL = """
n_bs = 16
n_ms = 8
n_clusters = 2
rays_per_cluster = 3
n_rf_bs = 8
n_rf_ms = 4
snr_grid_db = 0,10
n_trials = 3
n_data_symbols = 200
master_seed = 7
variants = pastd-fd,ooja-hy,oracle
"""

PAPER_SETUP = """
n_bs = 100
n_ms = 30
n_rf_bs = 20
n_rf_ms = 10
p_bs = 30
p_ms = 30
warmup = 10
"""

# Every key at a non-default value, pairwise distinct and exactly representable,
# in canonical order and format: a getter reading the wrong field cannot match.
ALL_KEYS = """\
n_bs = 24
n_ms = 12
element_spacing_wl = 0.375
n_clusters = 3
rays_per_cluster = 2,4,6
los_probability = 0.125
cluster_angle_spread_deg = 7.5
p_bs = 40
p_ms = 36
warmup = 14
multiplexing_order = 2
n_rf_bs = 10
n_rf_ms = 6
pastd_beta = 0.875
ooja_delta = 0.0625
psk_order = 8
n_data_symbols = 321
snr_grid_db = -3.5,1.25
n_trials = 17
master_seed = 99
variants = ooja-hy,pastd-fd,oracle
"""


class TestLoadConfig:
    def test_empty_text_gives_documented_defaults(self):
        cfg = load_config("")
        assert cfg.bs.n_elements == 100 and cfg.ms.n_elements == 30
        assert cfg.channel.n_clusters == 5
        assert cfg.channel.rays_per_cluster == (10,) * 5
        assert cfg.channel.los_probability == 0.0 and cfg.channel.cluster_angle_spread_deg == 5.0
        assert cfg.protocol.p_bs == 30 and cfg.protocol.warmup == 10
        assert cfg.protocol.n_rf_bs == 20 and cfg.protocol.n_rf_ms == 10
        assert cfg.protocol.tracker.beta == 0.95 and cfg.protocol.tracker.delta == 0.01
        assert cfg.metrics.psk_order == 16
        assert cfg.n_trials == 500

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config("bogus_key = 3\n")
        with pytest.raises(ConfigError, match="unknown key 'p_t_bs'"):
            load_config("p_t_bs = 1.0\n")  # each SNR point alone sets the transmit power

    def test_zero_trials_rejected_by_name(self):
        with pytest.raises(ConfigError, match="n_trials"):
            load_config("n_trials = 0\n")

    def test_bad_variant_rejected(self):
        with pytest.raises(ConfigError, match="variants"):
            load_config("variants = pastd-xy\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            load_config("n_trials = 1\nn_trials = 2\n")

    @pytest.mark.parametrize("key, value", [("variants", "oracle,oracle"), ("snr_grid_db", "0,0")])
    def test_duplicate_list_entry_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            load_config(f"{key} = {value}\n")

    def test_rays_broadcast(self):
        cfg = load_config("n_clusters = 3\nrays_per_cluster = 4\n")
        assert cfg.channel.rays_per_cluster == (4, 4, 4)

    def test_list_entries_parse_like_scalar_keys(self):
        # each entry of a list takes its scalar key's rule: int(s, 0), float, or the string as it is
        cfg = load_config("n_clusters = 0x3\nrays_per_cluster = 0x3, 0b10, 4\nsnr_grid_db = 1e1, -5\n")
        assert cfg.channel.rays_per_cluster == (3, 2, 4) and cfg.snr_grid_db == (10.0, -5.0)
        assert load_config("rays_per_cluster = 0x3\n").channel.rays_per_cluster == (3,) * 5
        with pytest.raises(ConfigError, match="rays_per_cluster: cannot parse '3.5'"):
            load_config("rays_per_cluster = 3.5\n")

    def test_paper_setup_round_trips_to_same_digest(self):
        cfg = load_config(PAPER_SETUP)
        again = load_config(resolved_text(cfg))
        assert config_digest(cfg) == config_digest(again)
        assert resolved_text(cfg) == resolved_text(again)

    def test_every_key_round_trips_literally(self):
        assert resolved_text(load_config(ALL_KEYS)) == ALL_KEYS

    @pytest.mark.parametrize(
        "text, digest",
        [
            ("", "a8dc25562e288a71"),
            (PAPER_SETUP, "a8dc25562e288a71"),
            (SMALL, "99adf23983bf37fe"),
            (ALL_KEYS, "b72fe10d8efe5d29"),
            ("n_clusters = 3\nrays_per_cluster = 4\n", "87c67a171910dddd"),
            ("n_bs = 0x20\nn_trials=0x3\n", "e53654f74cc87431"),
        ],
        ids=["default", "paper-setup", "small", "all-keys", "rays-broadcast", "int-base-0"],
    )
    def test_default_digest_is_pinned(self, text, digest):
        # earlier runs are keyed on these digests; a refactor must not re-key them
        assert config_digest(load_config(text)) == digest

    def test_replace_rebuilds_and_checks(self):
        cfg = replace(load_config(SMALL), n_bs=32)
        assert cfg.bs.n_elements == 32 and cfg.ms.n_elements == 8
        assert "n_bs = 32\n" in resolved_text(cfg)
        with pytest.raises(ConfigError, match="n_rf_bs"):
            replace(cfg, n_rf_bs=99)

    def test_reads_from_file(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(SMALL)
        assert config_digest(load_config(Path(path))) == config_digest(load_config(SMALL))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(Path("/nonexistent/cfg.txt"))

    def test_one_line_comment_is_text_not_a_path(self):
        assert config_digest(load_config("# just a comment")) == config_digest(load_config(""))

    def test_one_line_text_without_equals_names_the_line(self):
        with pytest.raises(ConfigError, match="line 1: expected 'key = value'"):
            load_config("n_trials 5")


ONE_TRIAL = SMALL.replace("n_trials = 3", "n_trials = 1")
SEVEN_TRIALS = SMALL.replace("n_trials = 3", "n_trials = 7")


def fail_second_scoring(monkeypatch):
    """Make spectral_efficiency raise on its second call: the first chunk's ooja-hy stack.

    Each variant scores its chunk's stack of (trial, SNR) streams in one call,
    so the failure is the whole stack's. Returns the seed_used of trial 0's
    stream at each SNR point, which every variant shares.
    """
    real = harness.spectral_efficiency
    calls = []

    def flaky(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise FloatingPointError("injected failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "spectral_efficiency", flaky)
    seqs = [np.random.SeedSequence(7, spawn_key=(1, si, 0)) for si in range(2)]
    return [int(seq.generate_state(1)[0]) for seq in seqs]


def assert_names_the_failed_run(message, seeds_used):
    coordinates = ("trial 0", "variant ooja-hy", "snr_db (0.0, 10.0)", f"seed_used {seeds_used}")
    for part in ("injected failure",) + coordinates:
        assert part in message


class TestRunExperiment:
    def test_trial_error_names_its_coordinates(self, monkeypatch):
        seeds_used = fail_second_scoring(monkeypatch)
        with pytest.raises(RuntimeError) as info:
            run_experiment(load_config(ONE_TRIAL))
        assert_names_the_failed_run(str(info.value), seeds_used)

    # a zero-norm column would fail the stacked scoring calls for every stream,
    # so this case fails unless the beams are checked before they are scored.
    # The stack's axes are (trial of the chunk, SNR point); SMALL's 3 trials are one chunk.
    @pytest.mark.parametrize("n_trials, entries, value, fault", [
        (1, (0, 1, 0, 0), np.nan, "d_ms is not finite"),
        (1, (0, 1, slice(None), 0), 0.0, "d_ms is not unit norm"),  # stream 1's first column
        (3, (2, 1, 0, 0), np.nan, "d_ms is not finite"),  # in the chunk's last trial
        (3, (2, 1, slice(None), 0), 0.0, "d_ms is not unit norm"),
    ], ids=["nan", "zero-norm", "nan-last-trial-of-chunk", "zero-norm-last-trial-of-chunk"])
    def test_bad_beam_names_its_own_stream(self, monkeypatch, n_trials, entries, value, fault):
        real = harness.run_protocol

        def bad_second_stream(chan, cfgs, front, sigma2, rngs, power):
            beams = real(chan, cfgs, front, sigma2, rngs, power)  # one per tracker variant, in config order
            beams[0].d_ms[entries] = value  # pastd-fd's
            return beams

        monkeypatch.setattr(harness, "run_protocol", bad_second_stream)
        text = SMALL.replace("snr_grid_db = 0,10", "snr_grid_db = 0,10,20")
        with pytest.raises(RuntimeError) as info:
            run_experiment(load_config(text.replace("n_trials = 3", f"n_trials = {n_trials}")))
        trial = n_trials - 1
        seq = np.random.SeedSequence(7, spawn_key=(1, 1, trial))  # 10 dB
        message = str(info.value)
        for part in (f"trial {trial}", "variant pastd-fd", "snr_db 10.0", fault):
            assert part in message
        assert f"seed_used {int(seq.generate_state(1)[0])}:" in message
        assert "snr_db 0.0" not in message and message.count("trial ") == 1

    def test_rate_above_the_oracle_names_its_own_stream(self, monkeypatch):
        real = harness.spectral_efficiency
        calls = []

        def inflated(*args, **kwargs):
            calls.append(None)
            se = real(*args, **kwargs)
            if len(calls) == 1:  # the pastd-fd stack: only the last trial's 10 dB stream
                se[-1, 1] += 1.0
            return se

        monkeypatch.setattr(harness, "spectral_efficiency", inflated)
        # one trial, then the last of a 3-trial chunk; and the oracle's rates bound every variant's
        # whether or not oracle is one of the variants
        for n_trials, variants in ((1, "pastd-fd,ooja-hy,oracle"), (3, "pastd-fd,ooja-hy,oracle"),
                                   (3, "pastd-fd,ooja-hy")):
            calls.clear()
            text = SMALL.replace("n_trials = 3", f"n_trials = {n_trials}")
            with pytest.raises(RuntimeError) as info:
                run_experiment(load_config(text.replace("variants = pastd-fd,ooja-hy,oracle", f"variants = {variants}")))
            trial = n_trials - 1
            seq = np.random.SeedSequence(7, spawn_key=(1, 1, trial))  # 10 dB
            message = str(info.value)
            for part in (f"trial {trial}", "variant pastd-fd", "snr_db 10.0", "exceeds the oracle's"):
                assert part in message
            assert f"seed_used {int(seq.generate_state(1)[0])}:" in message
            assert "snr_db 0.0" not in message and message.count("trial ") == 1

    def test_stack_error_names_every_trial_of_its_chunk(self, monkeypatch):
        fail_second_scoring(monkeypatch)
        with pytest.raises(RuntimeError) as info:
            run_experiment(load_config(SMALL))  # 3 trials: one chunk
        message = str(info.value)
        for trial in range(3):
            seqs = [np.random.SeedSequence(7, spawn_key=(1, si, trial)) for si in range(2)]
            seeds_used = [int(seq.generate_state(1)[0]) for seq in seqs]
            assert f"trial {trial}, variant ooja-hy, snr_db (0.0, 10.0), seed_used {seeds_used}" in message
        assert message.endswith(": injected failure")

    def test_channel_draw_error_names_its_trial(self, monkeypatch):
        def broken(*args):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(harness, "sample_channel", broken)
        with pytest.raises(RuntimeError, match="trial 0, channel draw: SVD did not converge"):
            run_experiment(load_config(ONE_TRIAL))

    def test_non_finite_power_is_a_channel_draw_error(self, monkeypatch):
        real = harness.sample_channel
        cfg = load_config(ONE_TRIAL)  # before the patches: validation would reject the patched noise
        cases = [
            # SNR * n_ms * sigma^2 / ||H||^2 overflows once the noise variance is huge
            (1e300, 1.0, "transmit power inf at snr_db 0.0"),
            # p_t is finite, but p_t / sigma^2 = SNR * n_ms / ||H||^2 overflows on a faint channel
            (harness.NOISE_VARIANCE, 1e-150,
             r"transmit power [0-9.e+]+ at snr_db 0.0: p_t / sigma\^2 is not finite"),
            # p_t = SNR * n_ms * sigma^2 / ||H||^2 underflows to 0 on a strong channel in faint noise
            (1e-320, 1e10, "transmit power 0.0 at snr_db 0.0: p_t is not > 0"),
        ]
        for noise_variance, h_scale, message in cases:
            def scaled(*args):
                chan = real(*args)
                return replace(chan, h=chan.h * h_scale)

            monkeypatch.setattr(harness, "NOISE_VARIANCE", noise_variance)
            monkeypatch.setattr(harness, "sample_channel", scaled)
            with pytest.raises(RuntimeError, match=f"trial 0, channel draw: {message}"):
                run_experiment(cfg)

    def test_oracle_variant_is_exact(self):
        cfg = load_config("n_trials = 1\nsnr_grid_db = 10\nvariants = oracle\nn_bs = 16\nn_ms = 8\nn_rf_bs = 8\nn_rf_ms = 4\n")
        records = run_experiment(cfg)
        assert len(records) == 1
        assert records[0].eta_u == pytest.approx(1.0, abs=1e-9)
        assert records[0].eta_v == pytest.approx(1.0, abs=1e-9)

    def test_two_runs_identical(self):
        cfg = load_config(SMALL)
        assert run_experiment(cfg) == run_experiment(cfg)

    def test_parallel_matches_serial(self):
        cfg = load_config(SEVEN_TRIALS)  # one chunk of 7 trials, then chunks of 4 and 3 on 2 workers
        assert run_experiment(cfg, workers=1) == run_experiment(cfg, workers=2)
        assert multiprocessing.active_children() == []

    def test_workers_are_capped_at_the_trial_count(self, monkeypatch, cpus):
        cpus(64)
        cfg = load_config(SEVEN_TRIALS)  # on 64 workers: 7 chunks of one trial
        assert run_experiment(cfg, workers=64) == run_experiment(cfg)
        monkeypatch.setattr(harness, "_chunk_records", report_pid)
        pids = run_experiment(cfg, workers=64)  # chunk j's pid, in chunk order
        assert len(set(pids)) == 7 and pids[0] == os.getpid()  # one worker per trial, chunk 0 in the caller
        assert run_experiment(load_config(ONE_TRIAL), workers=8) == [os.getpid()]  # one trial forks nothing

    def test_each_worker_runs_a_contiguous_share(self, monkeypatch):
        # chunks of 2 trials: 0-1, 2-3, 4-5, 6. On 2 workers the caller runs the first two, one child the rest
        monkeypatch.setattr(harness, "plan_chunks", fixed_chunks(2))
        monkeypatch.setattr(harness, "_chunk_records", report_pid)
        pids = run_experiment(load_config(SEVEN_TRIALS), workers=2)  # chunk j's pid, in chunk order
        caller = os.getpid()
        assert pids[:2] == [caller, caller] and pids[2] == pids[3] != caller
        monkeypatch.setattr(harness, "_chunk_records", lambda cfg, trials: [[(os.getpid(), trials.start)]])
        ran = run_experiment(load_config(SEVEN_TRIALS), workers=2)
        assert [start for _, start in ran] == [0, 2, 4, 6] and [pid == caller for pid, _ in ran] == [1, 1, 0, 0]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("width", [2, 3])
    def test_the_lowest_numbered_failing_chunk_is_raised(self, monkeypatch, width):
        # chunks of 2 trials: 0-1, 2-3, 4-5, 6. Chunk 1 runs on worker 1 and fails last; the later
        # chunks fail at once, in the caller (chunk 2 at width 2, chunk 3 at width 3) and in worker 2
        def fail_from_chunk_1(cfg, trials):
            if trials.start == 0:
                return [[None]] * len(trials)
            time.sleep(0.2 if trials.start == 2 else 0.0)
            raise ValueError(f"trial {trials.start}: injected failure")

        monkeypatch.setattr(harness, "plan_chunks", fixed_chunks(2))
        monkeypatch.setattr(harness, "_chunk_records", fail_from_chunk_1)
        with pytest.raises(ValueError, match=r"^trial 2: injected failure$"):
            run_experiment(load_config(SEVEN_TRIALS), workers=width)
        assert multiprocessing.active_children() == []

    def test_a_worker_that_exits_without_sending_is_named(self, monkeypatch):
        caller, real = os.getpid(), harness._chunk_records

        def exit_in_a_child(cfg, trials):
            if os.getpid() != caller:
                os._exit(3)
            return real(cfg, trials)

        monkeypatch.setattr(harness, "_chunk_records", exit_in_a_child)
        message = r"^worker 1 \(trials \[4, 5, 6\]\) exited with code 3 before sending its records$"
        with pytest.raises(RuntimeError, match=message):
            run_experiment(load_config(SEVEN_TRIALS), workers=2)  # chunks of 4 and 3
        assert multiprocessing.active_children() == []

    def test_a_forked_workers_error_carries_its_traceback(self, monkeypatch):
        caller, real = os.getpid(), harness.sample_channel

        def draw_in_the_caller_only(*args):
            if os.getpid() != caller:
                raise ValueError("boom")
            return real(*args)

        monkeypatch.setattr(harness, "sample_channel", draw_in_the_caller_only)
        with pytest.raises(RuntimeError, match=r"^trial 4, channel draw: boom$") as info:
            run_experiment(load_config(SEVEN_TRIALS), workers=2)  # chunks of 4 and 3: trial 4 is the worker's
        cause = info.value.__cause__
        assert cause is not None and "draw_in_the_caller_only" in str(cause)
        assert multiprocessing.active_children() == []

    def test_an_interrupted_caller_stops_and_joins_its_workers(self, monkeypatch):
        # the worker's records overflow the pipe's buffer, and the caller never reads them
        caller = os.getpid()

        def interrupt_the_caller(cfg, trials):
            if os.getpid() == caller:
                raise KeyboardInterrupt
            return [[bytes(1 << 20)]]

        def hung(signum, frame):  # not an OSError, which multiprocessing's waitpid loop swallows
            for child in multiprocessing.active_children():
                child.kill()
            pytest.fail("run_experiment did not return")

        monkeypatch.setattr(harness, "_chunk_records", interrupt_the_caller)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(20)
        try:
            with pytest.raises(KeyboardInterrupt):
                run_experiment(load_config(SEVEN_TRIALS), workers=2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert multiprocessing.active_children() == []

    def test_single_warmup_sample_below_multiplexing_order(self):
        # one warm-up sample spans rank 1, so the second column is a completion
        text = ONE_TRIAL.replace("variants =", "warmup = 1\nmultiplexing_order = 2\nvariants = pastd-hy,")
        records = run_experiment(load_config(text))
        assert len(records) == 4 * 2
        for r in records:
            assert all(math.isfinite(x) for x in (r.eta_u, r.eta_v, r.spectral_eff_bits))

    def test_record_ranges_and_ordering(self):
        cfg = load_config(SMALL)
        records = run_experiment(cfg)
        assert len(records) == 3 * 2 * 3  # variants x snrs x trials
        for r in records:
            assert 0.0 <= r.eta_u <= 1.0 and 0.0 <= r.eta_v <= 1.0
            assert r.spectral_eff_bits >= 0.0
            assert r.ser is None or 0.0 <= r.ser <= 1.0
        names = list(cfg.variants)
        keys = [(names.index(r.variant), r.snr_db, r.trial_index) for r in records]
        assert keys == sorted(keys)

    def test_channels_shared_across_variants(self):
        # paired comparison: the oracle rows pin down the per-trial channel
        cfg = load_config(SMALL)
        records = run_experiment(cfg)
        oracle = {(r.trial_index, r.snr_db): r for r in records if r.variant == "oracle"}
        assert all(r.eta_u == pytest.approx(1.0, abs=1e-9) for r in oracle.values())
        # estimated SE never exceeds the oracle SE on the same channel
        for r in records:
            if r.variant != "oracle":
                assert r.spectral_eff_bits <= oracle[(r.trial_index, r.snr_db)].spectral_eff_bits + 1e-9


# One value per config key, each unlike the key's value in KEY_BASE.
OTHER_VALUE = {
    "n_bs": 24,
    "n_ms": 12,
    "element_spacing_wl": 0.375,
    "n_clusters": 3,
    "rays_per_cluster": (4,),
    "los_probability": 1.0,
    "cluster_angle_spread_deg": 10.0,
    "p_bs": 20,
    "p_ms": 20,
    "warmup": 5,
    "multiplexing_order": 2,
    "n_rf_bs": 6,
    "n_rf_ms": 3,
    "pastd_beta": 0.8,
    "ooja_delta": 1.0,
    "psk_order": 4,
    "n_data_symbols": 100,
    "snr_grid_db": (0.0, 5.0),
    "n_trials": 3,
    "master_seed": 2,
    "variants": ("pastd-fd", "ooja-fd", "oracle"),
}
KEY_BASE = dict(n_bs=16, n_ms=8, n_rf_bs=8, n_rf_ms=4, n_trials=2, snr_grid_db=(0.0, 10.0), n_data_symbols=200)


def record_cells(cfg):
    return {(r.trial_index, r.variant, r.snr_db): (r.eta_u, r.eta_v, r.spectral_eff_bits, r.ser, r.seed_used)
            for r in run_experiment(cfg)}


class TestEveryKeyMovesARecord:
    """A key that moves no record is an option with no effect: it should not exist."""

    @pytest.fixture(scope="class")
    def base_cells(self):
        return record_cells(ExperimentConfig(**KEY_BASE))

    @pytest.mark.parametrize("key", [f.name for f in fields(ExperimentConfig) if f.init])
    def test_key_moves_a_record(self, base_cells, key):
        assert KEY_BASE.get(key, getattr(ExperimentConfig, key)) != OTHER_VALUE[key]
        cells = record_cells(ExperimentConfig(**{**KEY_BASE, key: OTHER_VALUE[key]}))
        if cells.keys() != base_cells.keys():
            return  # the row set moved

        def moved(a, b):
            return (a is None) != (b is None) or (a is not None and abs(a - b) > 1e-12)

        assert any(moved(a, b) for row in cells for a, b in zip(cells[row], base_cells[row]))


# the reduced-2w benchmark workload: 16 x 8 arrays, 7 SNR points, 16 trials on 2 workers
REDUCED_2W = """
n_bs = 16
n_ms = 8
n_rf_bs = 8
n_rf_ms = 4
snr_grid_db = -10,-5,0,5,10,15,20
n_data_symbols = 2000
n_trials = 16
"""


def fixed_chunks(b):
    """A stand-in for harness.plan_chunks: chunks of b trials, at most one worker per chunk."""
    def plan(cfg, workers):
        chunks = tuple(range(t, min(t + b, cfg.n_trials)) for t in range(0, cfg.n_trials, b))
        return chunks, max(1, min(workers, len(chunks)))
    return plan


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPUs this process may run on, which cap the worker count, to a count of cpus(n)."""
    def set_count(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    return set_count


class TestChunks:
    """The chunk plan follows a trial's probe bytes and the pool width; records do not depend on it."""

    @pytest.fixture(autouse=True)
    def many_cpus(self, cpus):
        cpus(64)  # widths above this machine's CPUs, as on a larger one

    @staticmethod
    def sizes(text, workers, **keys) -> tuple:
        """The planned chunk sizes, largest first (the counts, not the order), and the pool width."""
        chunks, width = harness.plan_chunks(replace(load_config(text), **keys), workers)
        return sorted((len(c) for c in chunks), reverse=True), width

    @staticmethod
    def trial_bytes(cfg) -> int:
        """One trial's drawn ProbeBlocks, in bytes, measured on the blocks draw_probes returns."""
        rngs = [np.random.default_rng(0) for _ in cfg.snr_grid_db]
        blocks = protocol.draw_probes(rngs, cfg.protocol, cfg.n_bs, cfg.n_ms, harness.NOISE_VARIANCE)
        return sum(a.nbytes for block in blocks for a in block)

    def test_every_trial_lands_in_exactly_one_chunk_in_order(self):
        for text in (SMALL, REDUCED_2W, PAPER_SETUP):
            trial_bytes = self.trial_bytes(load_config(text))
            for n_trials in (1, 2, 3, 5, 7, 9, 16, 17, 35, 200):
                for workers in (0, 1, 2, 3, 4, 8, 64):
                    cfg = replace(load_config(text), n_trials=n_trials)
                    chunks, width = harness.plan_chunks(cfg, workers)
                    assert [t for c in chunks for t in c] == list(range(n_trials))
                    sizes = [len(c) for c in chunks]
                    assert max(sizes) - min(sizes) <= 1 and sizes[0] == max(sizes)  # the manifest reads [0]
                    assert len(chunks) % width == 0 or len(chunks) == n_trials
                    assert width == max(1, min(workers, n_trials))
                    # within the budget (a trial over it runs alone), and width fewer chunks would not be
                    assert sizes[0] == 1 or sizes[0] * trial_bytes <= harness.CHUNK_BYTES
                    if len(chunks) > width:
                        assert -(-n_trials // (len(chunks) - width)) * trial_bytes > harness.CHUNK_BYTES

    def test_a_chunk_holds_its_probe_bytes_within_the_budget(self):
        # 16 x 8 at 7 SNR points: 7 x (30 x 16 + 16 x 30 x 8 + 30 x 1 + 16 x 30 x 16) = 84 210 bytes a trial
        assert self.sizes(REDUCED_2W, 1, n_trials=32) == ([32], 1)
        assert self.sizes(REDUCED_2W, 1, n_trials=33) == ([17, 16], 1)
        assert self.sizes(REDUCED_2W, 1, n_trials=70) == ([24, 23, 23], 1)
        assert self.sizes(REDUCED_2W, 2, n_trials=70) == ([18, 18, 17, 17], 2)  # 4 chunks, not 3 on 2 workers
        assert self.sizes(REDUCED_2W, 4, n_trials=9) == ([3, 2, 2, 2], 4)  # every worker gets a chunk
        assert self.sizes(REDUCED_2W, 8, n_trials=200) == ([25] * 8, 8)  # the acceptance run

    @pytest.mark.parametrize("m", [1, 2], ids=["paper", "mimo2"])
    def test_paper_geometries_plan_chunks_of_6(self, m):
        # 100 x 30 at 7 SNR points: 7 x (30 x 100 + 16 x 30 x 30 + 30 m + 16 x 30 x 100), about 458 KB a trial
        text = PAPER_SETUP + f"multiplexing_order = {m}\n"
        assert self.sizes(text, 1, n_trials=6) == ([6], 1)
        assert self.sizes(text, 1, n_trials=7) == ([4, 3], 1)
        assert self.sizes(text, 1, n_trials=12) == ([6, 6], 1)  # the paper workload
        assert self.sizes(text, 1, n_trials=16) == ([6, 5, 5], 1)  # the mimo2 workload
        assert self.sizes(text, 8, n_trials=200) == ([5] * 40, 8)  # the acceptance runs: 25 a worker
        assert self.sizes(text, 2, n_trials=200) == ([6] * 30 + [5] * 4, 2)  # the same on 2 CPUs

    def test_the_width_is_capped_at_the_cpus(self, cpus, monkeypatch):
        cfg = load_config(SEVEN_TRIALS)
        for n_cpus, width in ((1, 1), (2, 2), (3, 3), (64, 7)):  # 8 workers asked for, 7 trials
            cpus(n_cpus)
            assert harness.plan_chunks(cfg, 8)[1] == width
        cpus(2)
        monkeypatch.setattr(harness, "_chunk_records", report_pid)
        assert len(set(run_experiment(cfg, workers=8))) == 2  # the caller and one forked worker

    def test_reduced_2w_plans_2_chunks_of_8(self):
        assert self.sizes(REDUCED_2W, 2) == ([8, 8], 2)
        assert self.sizes(REDUCED_2W, 1) == ([16], 1)

    @staticmethod
    def records_csv(cfg, workers, tmp_path, name) -> bytes:
        emit_csv(run_experiment(cfg, workers=workers), tmp_path / name)
        return (tmp_path / name / "records.csv").read_bytes()

    @pytest.mark.parametrize("text, workers, planned", [
        (SEVEN_TRIALS, 1, 7),
        (SEVEN_TRIALS, 2, 4),
        (SEVEN_TRIALS, 3, 3),  # chunks of 3, 2, 2 on 3 workers
        (PAPER_SETUP + "n_trials = 7\nn_data_symbols = 200\n", 1, 4),
        (PAPER_SETUP + "n_trials = 7\nn_data_symbols = 200\n", 2, 4),
        (PAPER_SETUP + "n_trials = 7\nn_data_symbols = 200\n", 3, 3),  # chunks of 3, 2, 2 on 3 workers
        (PAPER_SETUP + "n_trials = 7\nmultiplexing_order = 2\n", 1, 4),
        (PAPER_SETUP + "n_trials = 7\nmultiplexing_order = 2\n", 2, 4),
    ], ids=["reduced", "reduced-2-workers", "reduced-3-workers", "paper", "paper-2-workers", "paper-3-workers",
         "paper-m2", "paper-m2-2-workers"])
    def test_one_trial_chunks_give_the_same_bytes(self, monkeypatch, tmp_path, text, workers, planned):
        cfg = load_config(text)  # 7 trials
        assert len(harness.plan_chunks(cfg, workers)[0][0]) == planned
        stacked = self.records_csv(cfg, workers, tmp_path, "planned")
        for b in (1, 7):  # one trial per chunk, then one chunk of every trial
            monkeypatch.setattr(harness, "plan_chunks", fixed_chunks(b))
            assert self.records_csv(cfg, workers, tmp_path, f"b{b}") == stacked


class TestSharedDraws:
    """Every variant of a trial probes with the same draws (common random numbers)."""

    def test_variants_see_the_same_phase_a_stream(self, monkeypatch):
        # the four tracker variants of a chunk share phase (a): its rows are formed once and
        # warm-started once per mode, then each variant runs its own phase (b)
        text = ONE_TRIAL.replace("variants = pastd-fd,ooja-hy,oracle",
                                 "variants = pastd-fd,ooja-fd,pastd-hy,ooja-hy,oracle")
        cfg = load_config(text)
        warm_rows, runs = [], []
        init, run = protocol.init_from_samples, protocol.tracker_run

        def init_spy(samples, m):
            warm_rows.append(np.array(samples))
            return init(samples, m)

        def run_spy(tracker, stream):  # the tracker's start and its rows, (..., T, n)
            runs.append((tracker.w.copy(), np.moveaxis(stream, 0, -2)))
            return run(tracker, stream)

        monkeypatch.setattr(protocol, "init_from_samples", init_spy)
        monkeypatch.setattr(protocol, "tracker_run", run_spy)
        records = run_experiment(cfg)
        assert len(warm_rows) == 6 and len(runs) == 8  # 2 + 4 warm starts, where one per phase made 8
        # phase (a) first, in config order: pastd-fd, ooja-fd, pastd-hy, ooja-hy
        (pastd_fd, fd_tail), (ooja_fd, ooja_tail), (pastd_hy, hy_tail), (ooja_hy, _) = runs[:4]
        assert pastd_fd.tobytes() == ooja_fd.tobytes() and fd_tail.tobytes() == ooja_tail.tobytes()
        assert pastd_hy.tobytes() == ooja_hy.tobytes()
        fd_rows = np.concatenate([warm_rows[0], fd_tail], axis=-2)
        hy_rows = np.concatenate([warm_rows[1], hy_tail], axis=-2)
        assert fd_rows.shape == (1, 2, 30, 8)  # (trial, SNR, probe, n_ms)
        np.testing.assert_array_equal(hy_rows, fd_rows @ cfg.front_end.d_ms_rf.conj())
        seeds = {}
        for r in records:
            seeds.setdefault(r.snr_db, set()).add(r.seed_used)
        assert all(len(used) == 1 for used in seeds.values()) and len(seeds) == 2

    def test_shared_call_error_names_every_variant_and_trial(self, monkeypatch):
        def broken(samples, m):
            raise np.linalg.LinAlgError("injected failure")

        monkeypatch.setattr(protocol, "init_from_samples", broken)
        with pytest.raises(RuntimeError) as info:
            run_experiment(load_config(SMALL))  # 3 trials: one chunk, one call for both trackers
        message = str(info.value)
        for trial in range(3):
            seqs = [np.random.SeedSequence(7, spawn_key=(1, si, trial)) for si in range(2)]
            seeds_used = [int(seq.generate_state(1)[0]) for seq in seqs]
            for variant in ("pastd-fd", "ooja-hy"):
                assert f"trial {trial}, variant {variant}, snr_db (0.0, 10.0), seed_used {seeds_used}" in message
        assert "oracle" not in message and message.endswith(": injected failure")

    def test_oracle_rows_do_not_depend_on_the_variant_list(self):
        def rows(variants, of):
            text = SMALL.replace("snr_grid_db = 0,10", "snr_grid_db = -10,0")
            text = text.replace("variants = pastd-fd,ooja-hy,oracle", f"variants = {variants}")
            return {(r.variant, r.trial_index, r.snr_db): (r.ser, r.eta_u, r.eta_v, r.spectral_eff_bits, r.seed_used)
                    for r in run_experiment(load_config(text)) if r.variant in of}

        alone = rows("oracle", of=("oracle",))
        assert len(alone) == 3 * 2
        assert rows("oracle,pastd-fd", of=("oracle",)) == alone
        # and the oracle, which is one more estimate, moves no tracker row
        trackers = rows("pastd-fd,ooja-hy", of=("pastd-fd", "ooja-hy"))
        assert len(trackers) == 2 * 3 * 2
        assert rows("pastd-fd,oracle,ooja-hy", of=("pastd-fd", "ooja-hy")) == trackers


def reference_aggregates(records) -> str:
    """aggregates.csv as emit_csv wrote it with one set of numpy calls per (variant, SNR) group and metric."""
    quantiles = (0.10, 0.25, 0.75, 0.90)

    def stats_cells(values):
        values = [v for v in values if v is not None]
        if not values:
            return [""] * (2 + len(quantiles))
        arr = np.asarray(values, dtype=float)
        stats = [arr.mean(), np.median(arr), *np.quantile(arr, quantiles)]
        return [format(float(x), ".17g") for x in stats]

    groups = {}
    for r in records:
        groups.setdefault((r.variant, r.snr_db), []).append(r)
    metrics = ("eta_u", "eta_v", "se_bits", "ser")
    header = ["variant", "snr_db", "n"] + [f"{m}_{s}" for m in metrics
                                           for s in ("mean", "median", "q10", "q25", "q75", "q90")]
    lines = [",".join(header)]
    for (variant, snr_db), group in groups.items():
        cells = [variant, format(snr_db, ".17g"), str(len(group))]
        for name in ("eta_u", "eta_v", "spectral_eff_bits", "ser"):
            cells += stats_cells([getattr(g, name) for g in group])
        lines.append(",".join(cells))
    return "".join(line + "\n" for line in lines)


class TestEmitCsv:
    def test_aggregates_equal_the_per_group_loop_byte_for_byte(self, tmp_path):
        full = run_experiment(load_config(SMALL.replace("n_trials = 3", "n_trials = 300")))
        third = random.Random(5).sample(full, len(full) // 3)  # shuffled, groups of several sizes
        mimo = run_experiment(load_config(SMALL + "multiplexing_order = 2\n"))  # no ser
        sizes = {}
        for r in third:
            sizes[(r.variant, r.snr_db)] = sizes.get((r.variant, r.snr_db), 0) + 1
        assert len(set(sizes.values())) > 1 and all(r.ser is None for r in mimo)
        for k, records in enumerate((full, third, full[:1], mimo)):
            emit_csv(records, tmp_path / str(k))
            assert (tmp_path / str(k) / "aggregates.csv").read_bytes() == reference_aggregates(records).encode()

    def test_single_record_two_files(self, tmp_path):
        cfg = load_config("n_trials = 1\nsnr_grid_db = 5\nvariants = oracle\nn_bs = 16\nn_ms = 8\nn_rf_bs = 8\nn_rf_ms = 4\n")
        emit_csv(run_experiment(cfg), tmp_path)
        records = (tmp_path / "records.csv").read_text().splitlines()
        aggregates = (tmp_path / "aggregates.csv").read_text().splitlines()
        assert records[0] == "trial,variant,snr_db,eta_u,eta_v,se_bits,ser,seed"
        assert len(records) == 2 and len(aggregates) == 2

    def test_identical_runs_identical_bytes(self, tmp_path):
        cfg = load_config(SMALL)
        emit_csv(run_experiment(cfg), tmp_path / "a")
        emit_csv(run_experiment(cfg), tmp_path / "b")
        assert (tmp_path / "a" / "records.csv").read_bytes() == (tmp_path / "b" / "records.csv").read_bytes()
        assert (tmp_path / "a" / "aggregates.csv").read_bytes() == (tmp_path / "b" / "aggregates.csv").read_bytes()

    def test_aggregates_match_independent_recomputation(self, tmp_path):
        cfg = load_config(SMALL.replace("n_trials = 3", "n_trials = 20"))
        emit_csv(run_experiment(cfg), tmp_path)
        raw = {}
        lines = (tmp_path / "records.csv").read_text().splitlines()
        for line in lines[1:]:
            cells = line.split(",")
            raw.setdefault((cells[1], cells[2]), []).append(float(cells[3]))
        agg_lines = (tmp_path / "aggregates.csv").read_text().splitlines()
        header = agg_lines[0].split(",")
        for line in agg_lines[1:]:
            cells = dict(zip(header, line.split(",")))
            values = np.array(raw[(cells["variant"], cells["snr_db"])])
            assert float(cells["n"]) == len(values)
            assert float(cells["eta_u_mean"]) == pytest.approx(values.mean(), rel=1e-15)
            assert float(cells["eta_u_median"]) == pytest.approx(np.median(values), rel=1e-15)
            assert float(cells["eta_u_q10"]) == pytest.approx(np.quantile(values, 0.1), rel=1e-15)
            assert float(cells["eta_u_q90"]) == pytest.approx(np.quantile(values, 0.9), rel=1e-15)

    def test_aggregates_match_one_quantile_at_a_time(self, tmp_path):
        records = run_experiment(load_config(SMALL))
        emit_csv(records, tmp_path)
        lines = (tmp_path / "aggregates.csv").read_text().splitlines()
        groups = {}
        for r in records:
            groups.setdefault((r.variant, r.snr_db), []).append(r)
        expected = []
        for (variant, snr_db), group in groups.items():
            cells = [variant, format(snr_db, ".17g"), str(len(group))]
            for name in ("eta_u", "eta_v", "spectral_eff_bits", "ser"):
                arr = np.array([getattr(r, name) for r in group], dtype=float)
                stats = [arr.mean(), np.median(arr)] + [np.quantile(arr, q) for q in (0.1, 0.25, 0.75, 0.9)]
                cells += [format(float(x), ".17g") for x in stats]
            expected.append(",".join(cells))
        assert lines[1:] == expected

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv([], tmp_path)


class TestCli:
    def test_validate_ok(self, tmp_path, capsys):
        path = tmp_path / "cfg.txt"
        path.write_text(SMALL)
        assert cli_main(["validate", "--config", str(path)]) == 0
        assert "config OK" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "cfg.txt"
        path.write_text("n_trials = 0\n")
        assert cli_main(["validate", "--config", str(path)]) == 2
        assert "n_trials" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, key",
        [
            ("multiplexing_order = 5\nn_rf_ms = 4\nvariants = pastd-hy\n", "n_rf"),
            ("multiplexing_order = 9\nn_ms = 8\nn_rf_ms = 4\nvariants = pastd-fd\n", "multiplexing_order"),
            ("master_seed = -1\n", "master_seed"),
            ("snr_grid_db = 0,nan\n", "snr_grid_db"),
            ("element_spacing_wl = nan\n", "element_spacing_wl"),
            ("ooja_delta = inf\n", "ooja_delta"),
            ("cluster_angle_spread_deg = inf\n", "cluster_angle_spread_deg"),
            ("snr_grid_db = 0,4000\n", "snr_grid_db"),  # finite, but 10^(x/10) overflows
            ("snr_grid_db = -4000\n", "snr_grid_db"),  # finite, but 10^(x/10) underflows to 0
            # 10^(x/10) is finite, but p_t / sigma^2 at the mean channel power is not;
            # at 3070 dB even 10^(x/10) * n_ms, the first product of a trial's power, is finite
            ("n_bs = 16\nn_ms = 8\nn_rf_bs = 8\nn_rf_ms = 4\nn_trials = 1\nsnr_grid_db = 3080\n", "snr_grid_db"),
            ("n_bs = 16\nn_ms = 8\nn_rf_bs = 8\nn_rf_ms = 4\nn_trials = 1\nsnr_grid_db = 3070\n", "snr_grid_db"),
            # 10^(x/10) is not 0, but p_t = 10^(x/10) n_ms sigma^2 underflows to 0 before the division
            ("n_bs = 16\nn_ms = 8\nn_rf_bs = 8\nn_rf_ms = 4\nn_trials = 1\nsnr_grid_db = -3150\n", "snr_grid_db"),
            ("warmup = 0\n", "warmup"),
            # a check of a model object names the key its field was built from
            ("pastd_beta = 2\n", "pastd_beta"),
            ("ooja_delta = -1\n", "ooja_delta"),
            ("n_bs = 0\n", "n_bs"),
            ("n_ms = 0\n", "n_ms"),
            ("element_spacing_wl = -1\n", "element_spacing_wl"),
            ("multiplexing_order = 0\n", "multiplexing_order"),
        ],
    )
    def test_validate_rejects_setup_errors(self, tmp_path, capsys, text, key):
        path = tmp_path / "cfg.txt"
        path.write_text(text)
        assert cli_main(["validate", "--config", str(path)]) == 2
        assert key in capsys.readouterr().err

    def test_negative_seed_flag_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.txt"
        path.write_text(ONE_TRIAL)
        argv = ["simulate", "--config", str(path), "--out", str(tmp_path / "out"), "--seed", "-5"]
        assert cli_main(argv) == 2
        assert "master_seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_is_a_config_error(self, tmp_path, capsys, threads):
        path = tmp_path / "cfg.txt"
        path.write_text(ONE_TRIAL)
        argv = ["simulate", "--config", str(path), "--out", str(tmp_path / "out"), "--threads", threads]
        assert cli_main(argv) == 2
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_path_containing_equals_sign(self, tmp_path, capsys):
        path = tmp_path / "run=1" / "cfg.txt"
        path.parent.mkdir()
        path.write_text(SMALL)
        assert cli_main(["validate", "--config", str(path)]) == 0
        assert config_digest(load_config(SMALL)) in capsys.readouterr().out

    def test_runtime_error_names_the_failed_run(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "cfg.txt"
        path.write_text(ONE_TRIAL)
        seeds_used = fail_second_scoring(monkeypatch)
        assert cli_main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("runtime error:")
        assert_names_the_failed_run(err, seeds_used)

    def test_simulate_writes_outputs(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(SMALL.replace("n_trials = 3", "n_trials = 2"))
        out = tmp_path / "out"
        assert cli_main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        for name in ("records.csv", "aggregates.csv", "config_resolved.txt"):
            assert (out / name).exists()

    def test_simulate_writes_a_manifest(self, tmp_path, monkeypatch):
        path = tmp_path / "cfg.txt"
        path.write_text(SMALL.replace("n_trials = 3", "n_trials = 4"))  # 2 chunks of 2 on 2 workers
        out = tmp_path / "out"
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        argv = ["simulate", "--config", str(path), "--out", str(out), "--threads", "2", "--seed", "99"]
        assert cli_main(argv) == 0
        lines = (out / "manifest.txt").read_text().splitlines()
        fields = dict(line.split(" = ", 1) for line in lines)
        cfg = load_config(path.read_text().replace("master_seed = 7", "master_seed = 99"))
        assert fields["config_digest"] == config_digest(cfg)
        assert fields["master_seed"] == "99" and fields["workers"] == "2" and fields["chunk_trials"] == "2"
        assert fields["python"] == platform.python_version() and fields["numpy"] == np.__version__
        assert fields["OMP_NUM_THREADS"] == "3" and fields["OPENBLAS_NUM_THREADS"] == "unset"
        assert float(fields["wall_s"]) > 0.0
        assert fields["blas_threads_in_trials"] == ("1" if harness._openblas() else "unknown")
        # the manifest sits beside the records, which it leaves as a direct run writes them
        emit_csv(run_experiment(cfg), tmp_path / "direct")
        assert (out / "records.csv").read_bytes() == (tmp_path / "direct" / "records.csv").read_bytes()

    def test_manifest_names_the_workers_that_ran(self, tmp_path, cpus):
        cpus(64)
        path = tmp_path / "cfg.txt"
        path.write_text(SEVEN_TRIALS)  # 7 chunks of 1: a pool of 7, not of the 16 asked for
        out = tmp_path / "out"
        assert cli_main(["simulate", "--config", str(path), "--out", str(out), "--threads", "16"]) == 0
        fields = dict(line.split(" = ", 1) for line in (out / "manifest.txt").read_text().splitlines())
        assert fields["workers"] == "7" and fields["chunk_trials"] == "1"
        assert cli_main(["simulate", "--config", str(path), "--out", str(out), "--threads", "2"]) == 0
        fields = dict(line.split(" = ", 1) for line in (out / "manifest.txt").read_text().splitlines())
        assert fields["workers"] == "2" and fields["chunk_trials"] == "4"

    def test_manifest_names_the_width_capped_at_the_cpus(self, tmp_path, cpus):
        path = tmp_path / "cfg.txt"
        path.write_text(SEVEN_TRIALS)
        cpus(2)  # 8 asked for on 2 CPUs: chunks of 4 and 3 on 2 workers
        assert cli_main(["simulate", "--config", str(path), "--out", str(tmp_path / "out"), "--threads", "8"]) == 0
        fields = dict(line.split(" = ", 1) for line in (tmp_path / "out" / "manifest.txt").read_text().splitlines())
        assert fields["workers"] == "2" and fields["chunk_trials"] == "4"

    @pytest.mark.parametrize("snr_db, accepted", [(-3131.0, True), (2972.5, True), (-3131.5, False), (2973.0, False)])
    def test_validate_and_trial_accept_the_same_snr_points(self, tmp_path, capsys, monkeypatch, snr_db, accepted):
        text = "n_bs = 16\nn_ms = 8\nn_rf_bs = 8\nn_rf_ms = 4\nn_trials = 1\nvariants = oracle\n"
        path = tmp_path / "cfg.txt"
        path.write_text(text + f"snr_grid_db = {snr_db}\n")
        assert cli_main(["validate", "--config", str(path)]) == (0 if accepted else 2)
        assert ("snr_grid_db" in capsys.readouterr().err) != accepted

        # the trial, on a channel at the mean power n_bs n_ms PATH_GAIN that validate assumes
        real = harness.sample_channel

        def at_mean_power(*args):
            chan = real(*args)
            scale = math.sqrt(16 * 8 * harness.PATH_GAIN) / np.linalg.norm(chan.h)
            return replace(chan, h=chan.h * scale, sigma=chan.sigma * scale)

        monkeypatch.setattr(harness, "sample_channel", at_mean_power)
        cfg = load_config(text)  # a point validate rejects cannot be loaded, so it is swapped in
        object.__setattr__(cfg, "snr_grid_db", (snr_db,))
        if accepted:
            assert [r.snr_db for r in run_experiment(cfg)] == [snr_db]
        else:
            with pytest.raises(RuntimeError, match="trial 0, channel draw: transmit power"):
                run_experiment(cfg)

    def test_ooja_overflow_is_named_not_recorded(self, tmp_path, capsys):
        # 260 dB passes validate, but OOJA's unscaled step overflows on samples of that power
        path = tmp_path / "cfg.txt"
        path.write_text("n_bs = 16\nn_ms = 8\nn_rf_bs = 8\nn_rf_ms = 4\nn_trials = 1\nsnr_grid_db = 260\n")
        assert cli_main(["validate", "--config", str(path)]) == 0
        with np.errstate(all="ignore"):
            assert cli_main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "runtime error: trial 0, variant ooja-" in err
        assert not (tmp_path / "out" / "records.csv").exists()

    def test_seed_override_changes_digest_and_records(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(SMALL.replace("n_trials = 3", "n_trials = 2"))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli_main(["simulate", "--config", str(path), "--out", str(out1)]) == 0
        assert cli_main(["simulate", "--config", str(path), "--out", str(out2), "--seed", "99"]) == 0
        assert "master_seed = 99" in (out2 / "config_resolved.txt").read_text()
        assert (out1 / "records.csv").read_bytes() != (out2 / "records.csv").read_bytes()
        # the flag runs exactly as the same seed set in the config file
        keyed, out3 = tmp_path / "keyed.txt", tmp_path / "o3"
        keyed.write_text(path.read_text().replace("master_seed = 7", "master_seed = 99"))
        assert cli_main(["simulate", "--config", str(keyed), "--out", str(out3)]) == 0
        for name in ("records.csv", "config_resolved.txt"):
            assert (out2 / name).read_bytes() == (out3 / name).read_bytes()


def report_pid(cfg, trials):
    """Stands in for harness._chunk_records: the process the chunk ran in, as the one record of one trial."""
    return [[os.getpid()]]


def report_blas_threads(cfg, trials):
    """Stands in for harness._chunk_records: where the chunk ran and on how many BLAS threads,
    as the one record of one trial."""
    return [[(os.getpid(), harness._openblas().scipy_openblas_get_num_threads64_())]]


class TestOneBlasThread:
    """run_experiment runs the trials on one thread of numpy's bundled OpenBLAS."""

    @pytest.fixture
    def openblas(self):
        lib = harness._openblas()
        if lib is None:
            pytest.skip("numpy is not linked to the bundled scipy-openblas")
        lib.scipy_openblas_set_num_threads64_(2)  # so that a run which sets nothing shows
        yield lib
        lib.scipy_openblas_set_num_threads64_(1)  # where run_experiment leaves the process

    def test_pool_workers_run_on_one_thread(self, openblas, monkeypatch):
        # the forked worker inherits the patched module attribute
        monkeypatch.setattr(harness, "_chunk_records", report_blas_threads)
        reports = run_experiment(load_config(SEVEN_TRIALS), workers=2)  # chunks of 4 and 3
        assert len(reports) == 2 and reports[0][0] == os.getpid() != reports[1][0]  # the caller, then a child
        assert {threads for _, threads in reports} == {1}

    def test_serial_run_leaves_the_caller_on_one_thread(self, openblas):
        run_experiment(load_config(ONE_TRIAL))
        assert openblas.scipy_openblas_get_num_threads64_() == 1

    def test_any_other_blas_is_left_alone(self, openblas, monkeypatch, tmp_path):
        cfg = load_config(SMALL)
        expected = run_experiment(cfg)
        openblas.scipy_openblas_set_num_threads64_(2)
        monkeypatch.setattr(harness, "_openblas", lambda: None)
        assert run_experiment(cfg) == expected
        assert openblas.scipy_openblas_get_num_threads64_() == 2
        path = tmp_path / "cfg.txt"
        path.write_text(ONE_TRIAL)
        assert cli_main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        fields = dict(line.split(" = ", 1) for line in (tmp_path / "out" / "manifest.txt").read_text().splitlines())
        assert fields["blas_threads_in_trials"] == "unknown"
