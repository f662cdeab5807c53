"""Experiment configuration: dataclass + plain-text (INI) round trip.

Every field has a default reproducing the stock demonstration: storage times
0/100/200/300 ns on top of a 150 ns intrinsic delay, 4.3e4 frames per
condition, single-photon weights 58.2/54.6/53.1/49.7 %, 8-bit ADC.  The full
effective configuration (defaults included) is dumped into every report for
provenance.
"""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass, field
from pathlib import Path

from .cavity import DEFAULT_SHUTTER_DETUNING_RAD_S, CavityParams
from .fock import DEFAULT_N_MAX
from .synth import AdcSpec, ImperfectionConfig

STOCK_STORAGE_TIMES_NS = (0.0, 100.0, 200.0, 300.0)
STOCK_PURITIES = (0.582, 0.546, 0.531, 0.497)
STOCK_FRAMES_PER_CONDITION = 43000


@dataclass(frozen=True)
class ExperimentConfig:
    # heralding rate (~300/s) and the 2:3 measurement duty cycle only set the
    # wall-clock data collection time, not the frame statistics; they are
    # deliberately not simulated
    cavity: CavityParams = field(default_factory=CavityParams)
    storage_times_ns: tuple[float, ...] = STOCK_STORAGE_TIMES_NS
    intrinsic_delay_ns: float = 150.0
    frames_per_condition: int = STOCK_FRAMES_PER_CONDITION
    #: "explicit" uses `purities` verbatim; "lifetime" derives
    #: p(t) = p0 exp(-t_release/tau) from the simulated storage lifetime
    purity_model: str = "explicit"
    purities: tuple[float, ...] = STOCK_PURITIES
    release_purity_p0: float = 0.626
    delta_closed_rad_s: float = DEFAULT_SHUTTER_DETUNING_RAD_S
    window_start_ns: float = 0.0
    window_end_ns: float = 1000.0
    dt_int_ns: float = 0.1
    imperfections: ImperfectionConfig = field(default_factory=ImperfectionConfig)
    adc: AdcSpec | None = field(default_factory=AdcSpec)
    n_max: int = DEFAULT_N_MAX
    bootstrap_resamples: int = 40
    master_seed: int = 20140523
    n_workers: int = 1

    def __post_init__(self):
        if len(self.storage_times_ns) == 0:
            raise ValueError("storage_times_ns must be non-empty")
        diffs = [b - a for a, b in zip(self.storage_times_ns, self.storage_times_ns[1:])]
        if any(d <= 0 for d in diffs):
            raise ValueError("storage_times_ns must be strictly increasing")
        if self.frames_per_condition < 100:
            raise ValueError("frames_per_condition must be >= 100")
        if self.purity_model not in ("explicit", "lifetime"):
            raise ValueError(f"unknown purity_model {self.purity_model!r}")
        if self.purity_model == "explicit" and len(self.purities) != len(self.storage_times_ns):
            raise ValueError("need one purity per storage time")
        if not 0.0 < self.release_purity_p0 <= 1.0:
            raise ValueError("release_purity_p0 must lie in (0, 1]")
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")

    @property
    def release_times_ns(self) -> tuple[float, ...]:
        return tuple(t + self.intrinsic_delay_ns for t in self.storage_times_ns)

    def to_text(self) -> str:
        """Canonical key=value dump (also the provenance/hashing format)."""
        cp = configparser.ConfigParser()
        cp["cavity"] = {
            "mc_round_trip_m": repr(float(self.cavity.mc_round_trip_m)),
            "mc_loss": repr(float(self.cavity.mc_loss)),
            "sc_round_trip_m": repr(float(self.cavity.sc_round_trip_m)),
            "sc_loss": repr(float(self.cavity.sc_loss)),
            "t_mc_sc": repr(float(self.cavity.t_mc_sc)),
            "t_sc_out": repr(float(self.cavity.t_sc_out)),
        }
        cp["schedule"] = {
            "delta_closed_rad_s": repr(float(self.delta_closed_rad_s)),
            "window_start_ns": repr(float(self.window_start_ns)),
            "window_end_ns": repr(float(self.window_end_ns)),
            "dt_int_ns": repr(float(self.dt_int_ns)),
        }
        cp["sweep"] = {
            "storage_times_ns": ", ".join(repr(float(t)) for t in self.storage_times_ns),
            "intrinsic_delay_ns": repr(float(self.intrinsic_delay_ns)),
            "frames_per_condition": str(self.frames_per_condition),
            "purity_model": self.purity_model,
            "purities": ", ".join(repr(float(p)) for p in self.purities),
            "release_purity_p0": repr(float(self.release_purity_p0)),
        }
        imp = self.imperfections
        cp["imperfections"] = {
            "displacement_re": repr(float(imp.displacement.real) if imp.displacement else 0.0),
            "displacement_im": repr(float(imp.displacement.imag) if imp.displacement else 0.0),
            "detuning_rad_s": repr(imp.detuning[0] if imp.detuning else 0.0),
            "detuning_phase_rad": repr(imp.detuning[1] if imp.detuning else 0.0),
            "extra_loss": repr(float(imp.extra_loss)),
            "electronic_noise_std": repr(float(imp.electronic_noise_std)),
        }
        cp["adc"] = {
            "enabled": str(self.adc is not None).lower(),
            "bits": str(self.adc.bits if self.adc else 8),
            "full_scale": repr(float(self.adc.full_scale if self.adc else AdcSpec().full_scale)),
        }
        cp["estimation"] = {
            "n_max": str(self.n_max),
            "bootstrap_resamples": str(self.bootstrap_resamples),
        }
        cp["run"] = {
            "master_seed": str(self.master_seed),
            "n_workers": str(self.n_workers),
        }
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()

    def provenance_text(self) -> str:
        """Like :meth:`to_text` but without the worker count: parallelism is
        an execution knob and must not affect any output byte."""
        lines = [
            ln for ln in self.to_text().splitlines() if not ln.startswith("n_workers")
        ]
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        """SHA-256 of the canonical provenance text."""
        return hashlib.sha256(self.provenance_text().encode()).hexdigest()


def _get(cp: configparser.ConfigParser, section: str, key: str, cast, default):
    if cp.has_option(section, key):
        raw = cp.get(section, key)
        return cast(raw)
    return default


def _float_tuple(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.replace(",", " ").split())


def load_config(path: str | Path) -> ExperimentConfig:
    """Read a config file; missing keys fall back to the stock defaults."""
    cp = configparser.ConfigParser()
    with open(path) as fh:
        cp.read_file(fh)
    base = ExperimentConfig()

    cavity = CavityParams(
        mc_round_trip_m=_get(cp, "cavity", "mc_round_trip_m", float, base.cavity.mc_round_trip_m),
        mc_loss=_get(cp, "cavity", "mc_loss", float, base.cavity.mc_loss),
        sc_round_trip_m=_get(cp, "cavity", "sc_round_trip_m", float, base.cavity.sc_round_trip_m),
        sc_loss=_get(cp, "cavity", "sc_loss", float, base.cavity.sc_loss),
        t_mc_sc=_get(cp, "cavity", "t_mc_sc", float, base.cavity.t_mc_sc),
        t_sc_out=_get(cp, "cavity", "t_sc_out", float, base.cavity.t_sc_out),
    )
    disp_re = _get(cp, "imperfections", "displacement_re", float, 0.0)
    disp_im = _get(cp, "imperfections", "displacement_im", float, 0.0)
    det = _get(cp, "imperfections", "detuning_rad_s", float, 0.0)
    det_phase = _get(cp, "imperfections", "detuning_phase_rad", float, 0.0)
    imperfections = ImperfectionConfig(
        displacement=complex(disp_re, disp_im) if (disp_re or disp_im) else None,
        detuning=(det, det_phase) if (det or det_phase) else None,
        extra_loss=_get(cp, "imperfections", "extra_loss", float, 1.0),
        electronic_noise_std=_get(cp, "imperfections", "electronic_noise_std", float, 0.0),
    )
    adc_enabled = _get(cp, "adc", "enabled", lambda s: s.strip().lower() in ("1", "true", "yes"), True)
    adc = (
        AdcSpec(
            bits=_get(cp, "adc", "bits", int, 8),
            full_scale=_get(cp, "adc", "full_scale", float, AdcSpec().full_scale),
        )
        if adc_enabled
        else None
    )
    return ExperimentConfig(
        cavity=cavity,
        storage_times_ns=_get(cp, "sweep", "storage_times_ns", _float_tuple, base.storage_times_ns),
        intrinsic_delay_ns=_get(cp, "sweep", "intrinsic_delay_ns", float, base.intrinsic_delay_ns),
        frames_per_condition=_get(cp, "sweep", "frames_per_condition", int, base.frames_per_condition),
        purity_model=_get(cp, "sweep", "purity_model", str.strip, base.purity_model),
        purities=_get(cp, "sweep", "purities", _float_tuple, base.purities),
        release_purity_p0=_get(cp, "sweep", "release_purity_p0", float, base.release_purity_p0),
        delta_closed_rad_s=_get(cp, "schedule", "delta_closed_rad_s", float, base.delta_closed_rad_s),
        window_start_ns=_get(cp, "schedule", "window_start_ns", float, base.window_start_ns),
        window_end_ns=_get(cp, "schedule", "window_end_ns", float, base.window_end_ns),
        dt_int_ns=_get(cp, "schedule", "dt_int_ns", float, base.dt_int_ns),
        imperfections=imperfections,
        adc=adc,
        n_max=_get(cp, "estimation", "n_max", int, base.n_max),
        bootstrap_resamples=_get(cp, "estimation", "bootstrap_resamples", int, base.bootstrap_resamples),
        master_seed=_get(cp, "run", "master_seed", int, base.master_seed),
        n_workers=_get(cp, "run", "n_workers", int, base.n_workers),
    )


def save_config(cfg: ExperimentConfig, path: str | Path) -> None:
    Path(path).write_text(cfg.to_text())
