"""Run configuration: INI-style files, presets, overrides, resolution.

The format is plain ``key = value`` lines under bracketed section headers
([model], [run], optional [sweep]); unknown sections or keys are errors
so typos never pass silently. Times accept an 'fs' or 'au' suffix and are
stored in au.
"""

from __future__ import annotations

import configparser
import itertools
import math
from dataclasses import MISSING, dataclass, field, fields, replace
from importlib import resources

from .errors import ConfigError
from .hamiltonian import DEFAULT_DIMENSION_CAP, check_dimension
from .model import BasisLayout, ModelSpec, bin_count_rule, time_to_au
from .propagator import DEFAULT_TOLERANCE, INITIAL_STATES, check_record, check_tolerance

# one key per ModelSpec field; None marks a required key. omega_c defaults
# to "resonant", which means omega0 + omega_nu
MODEL_KEYS = {
    f.name: "resonant" if f.name == "omega_c"
    else None if f.default is MISSING else repr(f.default)
    for f in fields(ModelSpec)
}

RUN_KEYS = {
    "t_final": None,
    "n_bins": "auto",
    "n_vib": "60",
    "dt_record": "1.0",
    "tolerance": repr(DEFAULT_TOLERANCE),
    "initial_state": "photonic",
    "vib_energy_times": "",
}

SWEEP_KEYS = ("sigma", "coupling", "kappa", "delta2")

_SECTIONS = {"model": MODEL_KEYS, "run": RUN_KEYS, "sweep": dict.fromkeys(SWEEP_KEYS)}

PRESET_NAMES = (
    "fig3a", "fig3c", "fig4a", "fig4c", "fig6",
    "figS1", "figS2", "figS3", "figS4",
)


def parse_time(token: str) -> float:
    """Parse '30 fs', '1240 au', or a bare number (au) into au."""
    parts = token.split()
    try:
        if len(parts) == 1:
            return time_to_au(float(parts[0]), "au")
        if len(parts) == 2:
            return time_to_au(float(parts[0]), parts[1])
    except ValueError as exc:
        raise ConfigError(f"cannot parse time {token!r}") from exc
    raise ConfigError(f"cannot parse time {token!r}")


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a number") from exc


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not an integer") from exc


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration, possibly carrying a sweep grid.

    A resolved point is a RunConfig too: no sweep, every knob a number,
    the record grid snapped to divide t_final.
    """

    spec: ModelSpec
    t_final: float
    n_bins: int | None          # None means the bin-count rule decides
    n_vib: int
    dt_record: float
    tolerance: float
    initial_state: str
    vib_energy_times: tuple[float, ...] = ()
    sweep: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n_vib < 2:
            raise ConfigError(f"n_vib must be >= 2, got {self.n_vib}")
        if not (math.isfinite(self.dt_record) and self.dt_record > 0):
            raise ConfigError(
                f"dt_record must be positive and finite, got {self.dt_record!r}"
            )
        check_tolerance(self.tolerance)
        if any(t > self.t_final for t in self.vib_energy_times):
            raise ConfigError(
                f"vib_energy_times must not exceed t_final = {self.t_final!r} au, "
                f"got {max(self.vib_energy_times)!r} au"
            )
        for point in self.sweep_points():
            replace(self.spec, **point)  # every grid point's ModelSpec checks itself

    def sweep_points(self) -> list[dict]:
        """Sorted cartesian product of the sweep lists; [{}] if no sweep."""
        if not self.sweep:
            return [{}]
        keys = [k for k in SWEEP_KEYS if k in self.sweep]
        product = itertools.product(*(sorted(self.sweep[k]) for k in keys))
        return [dict(zip(keys, values)) for values in product]

    def resolve_point(self, point: dict | None = None) -> RunConfig:
        spec = replace(self.spec, **point) if point else self.spec
        if self.t_final <= 0:
            raise ConfigError("t_final must be > 0")
        n_bins = self.n_bins
        if n_bins is None:
            n_bins = bin_count_rule(spec.sigma, self.t_final)
        # refuse before binning: the rule grows without bound with sigma
        layout = BasisLayout(n_bins, self.n_vib)
        check_dimension(layout.dimension, DEFAULT_DIMENSION_CAP)
        steps = self.t_final / self.dt_record
        # refuse before rounding: a grid too long to record may not be finite
        check_record(steps + 1, n_bins)
        n_steps = max(1, round(steps))
        return replace(self, spec=spec, n_bins=n_bins,
                       dt_record=self.t_final / n_steps, sweep={})

    def manifest_text(self, version: str) -> str:
        """Round-trippable INI text of this configuration."""
        lines = [f"# polarbin {version}", "", "[model]"]
        lines += [f"{key} = {getattr(self.spec, key)!r}" for key in MODEL_KEYS]
        lines += [
            "",
            "[run]",
            f"t_final = {self.t_final!r} au",
            f"n_bins = {'auto' if self.n_bins is None else self.n_bins}",
            f"n_vib = {self.n_vib}",
            f"dt_record = {self.resolve_point().dt_record!r}",
            f"tolerance = {self.tolerance!r}",
            f"initial_state = {self.initial_state}",
            f"vib_energy_times = {', '.join(f'{t!r} au' for t in self.vib_energy_times)}",
        ]
        if self.sweep:
            lines += ["", "[sweep]"]
            for key in SWEEP_KEYS:
                if key in self.sweep:
                    lines.append(
                        f"{key} = {', '.join(repr(v) for v in self.sweep[key])}"
                    )
        return "\n".join(lines) + "\n"


def _read_ini(text: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(
        interpolation=None, delimiters=("=",), inline_comment_prefixes=("#",)
    )
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    return parser


def _with_defaults(section: str, given: dict) -> dict:
    """A section's values with its defaults filled in; a None default is required."""
    for key, default in _SECTIONS[section].items():
        if default is None and key not in given:
            raise ConfigError(f"missing required key [{section}] {key}")
    return {**_SECTIONS[section], **given}


def load_config(text: str, overrides: list[str] | None = None) -> RunConfig:
    """Parse config text, apply 'section.key=value' overrides, validate."""
    parser = _read_ini(text)
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")

    values = {section: dict(parser[section]) if parser.has_section(section) else {}
              for section in _SECTIONS}
    for section, given in values.items():
        for key in given:
            if key not in _SECTIONS[section]:
                raise ConfigError(f"unknown key [{section}] {key}")

    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        section, key = section.strip(), key.strip()
        if section not in _SECTIONS:
            raise ConfigError(f"override targets unknown section [{section}]")
        if key not in _SECTIONS[section]:
            raise ConfigError(f"override targets unknown key [{section}] {key}")
        values[section][key] = value.strip()

    model = _with_defaults("model", values["model"])
    params = {
        key: _parse_float("model", key, model[key])
        for key in MODEL_KEYS
        if (key, model[key]) != ("omega_c", "resonant")
    }
    params.setdefault("omega_c", params["omega0"] + params["omega_nu"])
    spec = ModelSpec(**params)

    run = _with_defaults("run", values["run"])
    n_bins_raw = run["n_bins"].strip()
    n_bins = None if n_bins_raw == "auto" else _parse_int("run", "n_bins", n_bins_raw)
    if n_bins is not None and n_bins < 1:
        raise ConfigError("n_bins must be >= 1 or 'auto'")
    initial_state = run["initial_state"].strip()
    if initial_state not in INITIAL_STATES:
        raise ConfigError(f"unknown initial_state {initial_state!r}")
    vib_times = tuple(
        parse_time(tok.strip())
        for tok in run["vib_energy_times"].split(",")
        if tok.strip()
    )

    sweep = {}
    for key, raw in values["sweep"].items():
        entries = [tok.strip() for tok in raw.split(",") if tok.strip()]
        if entries:
            sweep[key] = tuple(_parse_float("sweep", key, tok) for tok in entries)

    return RunConfig(
        spec=spec,
        t_final=parse_time(run["t_final"]),
        n_bins=n_bins,
        n_vib=_parse_int("run", "n_vib", run["n_vib"]),
        dt_record=_parse_float("run", "dt_record", run["dt_record"]),
        tolerance=_parse_float("run", "tolerance", run["tolerance"]),
        initial_state=initial_state,
        vib_energy_times=vib_times,
        sweep=sweep,
    )


def load_config_file(path, overrides=None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return load_config(text, overrides)


def load_preset(name: str, overrides=None) -> RunConfig:
    if name not in PRESET_NAMES:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        )
    text = (resources.files("polarbin") / "presets" / f"{name}.cfg").read_text()
    return load_config(text, overrides)
