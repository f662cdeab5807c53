"""Experiment configuration: dataclass + plain-text (INI) round trip.

Every field has a default reproducing the stock demonstration: storage times
0/100/200/300 ns on top of a 150 ns intrinsic delay, 4.3e4 frames per
condition, single-photon weights 58.2/54.6/53.1/49.7 %, 8-bit ADC.  The full
effective configuration (defaults included) is dumped into every report for
provenance.  The INI schema is the single table ``_FIELDS``: it drives both
the dump and the loader, which rejects any section or key not in it.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

from .cavity import DEFAULT_SHUTTER_DETUNING_RAD_S, CavityParams, ShutterSchedule
from .estimation import MAX_N_MAX, MIN_BOOTSTRAP_RESAMPLES, MIN_MLE_SAMPLES
from .fock import DEFAULT_N_MAX
from .modes import GRID_TOL
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
    adc: AdcSpec = field(default_factory=AdcSpec)
    n_max: int = DEFAULT_N_MAX
    bootstrap_resamples: int = 40
    master_seed: int = 20140523

    def __post_init__(self):
        if len(self.storage_times_ns) == 0:
            raise ValueError("storage_times_ns must be non-empty")
        # the shifted reanalysis moves a mode on the 1 ns frame grid by the
        # difference of two storage times, and each condition's output
        # directory is named by its whole ns; half the tolerance each keeps
        # the difference within GRID_TOL of whole
        if not all(math.isfinite(t) and abs(t - round(t)) <= GRID_TOL / 2 for t in self.storage_times_ns):
            raise ValueError(
                f"[sweep] storage_times_ns must be whole numbers of ns, got {self.storage_times_ns}"
            )
        whole = [round(t) for t in self.storage_times_ns]
        if any(b <= a for a, b in zip(whole, whole[1:])):
            raise ValueError("storage_times_ns must be strictly increasing")
        if self.purity_model not in ("explicit", "lifetime"):
            raise ValueError(f"unknown purity_model {self.purity_model!r}")
        if self.purity_model == "explicit" and len(self.purities) != len(self.storage_times_ns):
            raise ValueError("need one purity per storage time")
        if not all(0.0 <= p <= 1.0 for p in self.purities):
            raise ValueError(f"[sweep] purities must lie in [0, 1], got {self.purities}")
        if not 0.0 < self.release_purity_p0 <= 1.0:
            raise ValueError("release_purity_p0 must lie in (0, 1]")
        if not 0 <= self.master_seed < 2**64:
            # numpy's seed sequence takes no negative entropy, and the frame
            # file stores the seed in 64 bits
            bound = ">= 0" if self.master_seed < 0 else "< 2**64"
            raise ValueError(
                f"master_seed ([run] master_seed, --seed) must be {bound}, got {self.master_seed}"
            )
        if not math.isfinite(self.delta_closed_rad_s):
            raise ValueError(f"[schedule] delta_closed_rad_s must be finite, got {self.delta_closed_rad_s}")
        if not 1 <= self.n_max <= MAX_N_MAX:
            raise ValueError(f"n_max must lie in [1, {MAX_N_MAX}]")
        if self.bootstrap_resamples < MIN_BOOTSTRAP_RESAMPLES:
            raise ValueError(f"bootstrap_resamples must be >= {MIN_BOOTSTRAP_RESAMPLES}")
        for storage, t in zip(self.storage_times_ns, self.release_times_ns):
            try:  # ShutterSchedule checks window and grid
                self.schedule(t)
            except ValueError as exc:
                raise ValueError(
                    f"release at {t!r} ns ([sweep] storage_times_ns {storage!r} + "
                    f"intrinsic_delay_ns {self.intrinsic_delay_ns!r}) does not fit "
                    f"[schedule] window_start_ns {self.window_start_ns!r}, window_end_ns "
                    f"{self.window_end_ns!r}, dt_int_ns {self.dt_int_ns!r}: {exc}"
                ) from None
        if self.frames_per_condition < MIN_MLE_SAMPLES:
            raise ValueError(
                f"frames_per_condition must be >= {MIN_MLE_SAMPLES}, the MLE's sample floor"
            )

    @property
    def release_times_ns(self) -> tuple[float, ...]:
        return tuple(t + self.intrinsic_delay_ns for t in self.storage_times_ns)

    @property
    def n_samples(self) -> int:
        """Samples per frame: the recording window on the 1 ns frame grid."""
        return int(round(self.window_end_ns - self.window_start_ns))

    def schedule(self, t_release_ns: float) -> ShutterSchedule:
        """Shutter schedule of a release at ``t_release_ns`` in this window."""
        return ShutterSchedule(
            t_release_ns, self.delta_closed_rad_s, self.window_start_ns, self.window_end_ns, self.dt_int_ns
        )

    def to_text(self) -> str:
        """Canonical key=value dump (also the provenance/hashing format)."""
        rows: dict[str, list[str]] = {}
        for section, key, cast, read in _FIELDS:
            rows.setdefault(section, []).append(f"{key} = {_FORMAT.get(cast, str)(read(self))}\n")
        return "".join(f"[{section}]\n{''.join(lines)}\n" for section, lines in rows.items())

    def digest(self) -> str:
        """SHA-256 of the canonical text."""
        return hashlib.sha256(self.to_text().encode()).hexdigest()


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.replace(",", " ").split())


#: The INI schema, one row per key: (section, key, cast, read).  ``cast``
#: parses the INI text and fixes the key's format in the dump; ``read`` takes
#: the value from a config, and from the stock config for a key a file omits.
#: The cavity, imperfections and adc sections each build one field of
#: ExperimentConfig (see ``_OBJECTS``); the keys of the other sections are
#: ExperimentConfig fields.
_FIELDS = (
    ("cavity", "mc_round_trip_m", float, lambda c: c.cavity.mc_round_trip_m),
    ("cavity", "mc_loss", float, lambda c: c.cavity.mc_loss),
    ("cavity", "sc_round_trip_m", float, lambda c: c.cavity.sc_round_trip_m),
    ("cavity", "sc_loss", float, lambda c: c.cavity.sc_loss),
    ("cavity", "t_mc_sc", float, lambda c: c.cavity.t_mc_sc),
    ("cavity", "t_sc_out", float, lambda c: c.cavity.t_sc_out),
    ("schedule", "delta_closed_rad_s", float, lambda c: c.delta_closed_rad_s),
    ("schedule", "window_start_ns", float, lambda c: c.window_start_ns),
    ("schedule", "window_end_ns", float, lambda c: c.window_end_ns),
    ("schedule", "dt_int_ns", float, lambda c: c.dt_int_ns),
    ("sweep", "storage_times_ns", _floats, lambda c: c.storage_times_ns),
    ("sweep", "intrinsic_delay_ns", float, lambda c: c.intrinsic_delay_ns),
    ("sweep", "frames_per_condition", int, lambda c: c.frames_per_condition),
    ("sweep", "purity_model", str, lambda c: c.purity_model),
    ("sweep", "purities", _floats, lambda c: c.purities),
    ("sweep", "release_purity_p0", float, lambda c: c.release_purity_p0),
    ("imperfections", "displacement_re", float, lambda c: c.imperfections.displacement or 0.0),
    ("imperfections", "detuning_rad_s", float, lambda c: (c.imperfections.detuning or (0.0, 0.0))[0]),
    ("imperfections", "detuning_phase_rad", float, lambda c: (c.imperfections.detuning or (0.0, 0.0))[1]),
    ("imperfections", "extra_loss", float, lambda c: c.imperfections.extra_loss),
    ("imperfections", "electronic_noise_std", float, lambda c: c.imperfections.electronic_noise_std),
    ("adc", "bits", int, lambda c: c.adc.bits),
    ("adc", "full_scale", float, lambda c: c.adc.full_scale),
    ("estimation", "n_max", int, lambda c: c.n_max),
    ("estimation", "bootstrap_resamples", int, lambda c: c.bootstrap_resamples),
    ("run", "master_seed", int, lambda c: c.master_seed),
)

#: canonical INI text of a value, by the cast that reads it back
_FORMAT = {
    float: lambda v: repr(float(v)),
    _floats: lambda v: ", ".join(repr(float(t)) for t in v),
}

#: builders of the object-valued fields, called with their section's values
#: in table order (ImperfectionConfig maps a zero displacement or detuning
#: to None)
_OBJECTS = {
    "cavity": CavityParams,
    "imperfections": lambda re, rad_s, phase, *rest: ImperfectionConfig(re, (rad_s, phase), *rest),
    "adc": AdcSpec,
}


def load_config(path: str | Path) -> ExperimentConfig:
    """Read a config file; missing keys fall back to the stock defaults.

    An unknown section or key, or a value its cast rejects, raises
    ``ValueError`` naming ``[section] key``.
    """
    cp = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except configparser.Error as exc:
        raise ValueError(f"{path}: {exc}") from None
    given = {(s, k): cp.get(s, k) for s in cp.sections() for k in cp.options(s)}
    stock = ExperimentConfig()
    values: dict[str, dict] = {}
    for section, key, cast, read in _FIELDS:
        raw = given.pop((section, key), None)
        try:
            value = read(stock) if raw is None else cast(raw)
        except ValueError as exc:
            raise ValueError(f"{path}: [{section}] {key} = {raw!r}: {exc}") from None
        values.setdefault(section, {})[key] = value
    unknown = [f"[{s}]" for s in cp.sections() if s not in values]
    unknown += [f"[{s}] {k}" for s, k in given if s in values]
    unknown += [f"[{cp.default_section}] {k}" for k in cp.defaults()]
    if unknown:
        raise ValueError(f"{path}: unknown section or key: {', '.join(unknown)}")
    kwargs = {}
    for section, vals in values.items():
        if section in _OBJECTS:
            kwargs[section] = _OBJECTS[section](*vals.values())
        else:
            kwargs.update(vals)
    return ExperimentConfig(**kwargs)
