"""The benchmark's workloads: experiment configs, worker counts and batch sizes.

Each workload stresses a different layer of the simulator:

- ``paper``: the paper's own setup (the acceptance suite's paper config) on one
  worker. DPSK SER and the 100x100 warm start dominate it; the pool is bypassed.
- ``reduced-2w``: the reduced config plus ``oracle`` on two workers. Small
  arrays make per-sample Python work (probes, tracker steps) carry the load,
  and it is the only workload that goes through the process pool.
- ``mimo2``: the paper geometry at multiplexing order 2 on one worker. DPSK is
  never called, so a DPSK change should show no change here; warm start and
  probes dominate and the trackers run at m = 2.

Every workload lists ``oracle`` among its variants, because the record check
compares each spectral efficiency with the oracle's for the same trial and SNR.
"""

from __future__ import annotations

from dataclasses import dataclass

VARIANTS = ("pastd-fd", "ooja-fd", "pastd-hy", "ooja-hy", "oracle")
SNR_GRID_DB = (-10, -5, 0, 5, 10, 15, 20)
SER_SYMBOLS_PER_CALL = 2000
# The configs keep the default probe counts p_bs = p_ms = 30 and warmup = 10,
# so each tracker_run call steps over 30 - 10 samples.
SAMPLES_PER_TRACKER_RUN = 20

PAPER_GEOMETRY = {"n_bs": 100, "n_ms": 30, "n_rf_bs": 20, "n_rf_ms": 10}
REDUCED_GEOMETRY = {"n_bs": 16, "n_ms": 8, "n_rf_bs": 8, "n_rf_ms": 4}


@dataclass(frozen=True)
class Workload:
    name: str
    geometry: dict
    workers: int
    trials: int          # trials in one batch call of run_experiment
    m: int = 1           # multiplexing order

    def config_text(self, seed: int, n_trials: int | None = None) -> str:
        keys = dict(self.geometry)
        keys["snr_grid_db"] = ",".join(str(s) for s in SNR_GRID_DB)
        keys["variants"] = ",".join(VARIANTS)
        keys["n_data_symbols"] = SER_SYMBOLS_PER_CALL
        keys["multiplexing_order"] = self.m
        keys["n_trials"] = self.trials if n_trials is None else n_trials
        keys["master_seed"] = seed
        return "".join(f"{k} = {v}\n" for k, v in keys.items())

    @property
    def records_per_batch(self) -> int:
        return self.trials * len(VARIANTS) * len(SNR_GRID_DB)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper", PAPER_GEOMETRY, workers=1, trials=12),
        Workload("reduced-2w", REDUCED_GEOMETRY, workers=2, trials=16),
        Workload("mimo2", PAPER_GEOMETRY, workers=1, trials=16, m=2),
    )
}
