"""Line-oriented run configuration: ``key = value`` entries under
``[section]`` headers, described key by key in the table ``KEYS``.

Errors name the offending line.  Numbers must be finite, and the pair
``build_pair`` builds from them must pass ``fields.check_pair``.  A key
the configured topology or scenario does not read is rejected: only
constant_spinor reads ``[target]``, as the other scenarios map into S^2.
``elliptic_pair`` needs a torus.  The ``[solver]`` rows take their
defaults from ``SolverConfig`` and their ranges from ``solver.MINIMA``;
the ``chart`` rows take their limits from ``charts.MIN_N``, ``MIN_SIDE``,
``MAX_SIDE`` and ``MIN_DISK_SIDE``.
Keys (generated from ``KEYS``): default, accepted values and, in
brackets, who reads the key if not everyone.
"""

from __future__ import annotations

import cmath
import hashlib
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .charts import MAX_SIDE, MIN_DISK_SIDE, MIN_N, MIN_SIDE, DomainChart, bandlimited_field
from .fields import MapField, TwistedSpinorField, check_pair
from .solutions import (RationalMap, conformal_map_field, constant_spinor_pair,
                        elliptic_conformal_field, harmonic_wrap, twistor_pushforward)
from .solver import MINIMA, SolverConfig
from .targets import Flat, Sphere


class ConfigError(Exception):
    pass


_SCALARS = {"int": (int, "an integer"), "float": (float, "a number"),
            "complex": (complex, "a complex number")}


def _within(value, interval: str) -> bool:
    lo, hi = (float(t) for t in interval[1:-1].split(","))
    return ((lo < value or (interval[0] == "[" and value == lo))
            and (value < hi or (interval[-1] == "]" and value == hi)))


@dataclass(frozen=True)
class Key:
    """One row of the key table.  ``type`` is int, float or complex, each
    optionally a comma-separated `` list``, ``text``, or the allowed words
    joined by `` | ``; ``readers`` names the topologies or scenario kinds
    that read the row (empty: all).  A default of none may stay unset."""

    section: str
    name: str
    type: str
    default: str
    interval: str = ""
    size: int = 0
    readers: tuple = ()

    def parse(self, text: str):
        """Value of ``text``; raises ValueError saying what is wrong."""
        if self.default == "none" and text in ("", "none"):
            return None
        if " | " in self.type and text not in self.type.split(" | "):
            raise ValueError(f"{text!r} is not one of {self.type}")
        if self.type == "text" or " | " in self.type:
            return text
        scalar, _, is_list = self.type.partition(" ")
        convert, what = _SCALARS[scalar]
        values = []
        for part in [p.strip() for p in text.split(",") if p.strip()] if is_list else [text]:
            try:
                values.append(convert(part))
            except ValueError:
                raise ValueError(f"not {what}: {part!r}") from None
            if not cmath.isfinite(complex(part)):  # so is an int beyond the float range
                raise ValueError(f"not a finite number: {part!r}")
        if not values or (self.size and len(values) != self.size):
            raise ValueError(f"needs {self.size or 'at least one'} value(s), got {len(values)}")
        if self.interval and not all(_within(v, self.interval) for v in values):
            raise ValueError(f"{text} outside {self.interval}")
        return values if is_list else values[0]

    def describe(self) -> str:
        what = self.type + (f" of {self.size}" if self.size else "")
        what += f" in {self.interval}" if self.interval else ""
        return what + (f"  [{', '.join(self.readers)}]" if self.readers else "")


_TWISTOR, _CONSTANT, _PERTURBED = "twistor_pushforward", "constant_spinor", "perturbed_constant"

KEYS = (
    Key("chart", "topology", "torus | disk", "torus"),
    Key("chart", "n", "int", "64", f"[{MIN_N}, 4096]"),
    Key("chart", "side", "float", "1.0", f"[{MIN_SIDE:g}, {MAX_SIDE:g}]", readers=("torus",)),
    Key("chart", "side", "float", "2.2", f"({MIN_DISK_SIDE:g}, {MAX_SIDE:g}]", readers=("disk",)),
    Key("chart", "window", "float", "none", "(0, 1]", readers=("torus",)),
    Key("target", "kind", "sphere | flat", "sphere", readers=(_CONSTANT,)),
    Key("target", "dim", "int", "2", "[1, 16]", readers=(_CONSTANT,)),
    Key("scenario", "kind", f"{_TWISTOR} | elliptic_pair | harmonic_wrap | {_CONSTANT} | "
        f"{_PERTURBED}", _TWISTOR),
    Key("scenario", "rational_num", "complex list", "0,1", readers=(_TWISTOR,)),
    Key("scenario", "rational_den", "complex list", "1", readers=(_TWISTOR,)),
    Key("scenario", "psi0", "complex list", "1,0", size=2, readers=(_TWISTOR,)),
    Key("scenario", "psi1", "complex list", "0,0", size=2, readers=(_TWISTOR,)),
    Key("scenario", "map_scale", "complex", "0.7", readers=("elliptic_pair",)),
    Key("scenario", "psi0", "complex list", "1,0.5j", size=2, readers=("elliptic_pair",)),
    Key("scenario", "winding", "int", "1", readers=("harmonic_wrap",)),
    Key("scenario", "base_point", "float list", "0,0,1", readers=(_CONSTANT, _PERTURBED)),
    Key("scenario", "spinor_direction", "float list", "1,0,0", readers=(_CONSTANT,)),
    Key("scenario", "spinor_components", "complex list", "1,0", size=2, readers=(_CONSTANT,)),
    Key("scenario", "amplitude", "float", "0.05", readers=(_PERTURBED,)),
    Key("scenario", "modes", "int list", "2,3", "[1, 32]", readers=(_PERTURBED,)),
    *(Key("solver", name, type(getattr(SolverConfig, name)).__name__,
          str(getattr(SolverConfig, name)), f"[{least}, inf)") for name, least in MINIMA.items()),
    Key("output", "out_dir", "text", "runs"),
    Key("output", "seed", "int", "1234", "[0, inf)"),
)
_ROWS: dict[tuple[str, str], list[Key]] = {}
for _key in KEYS:
    _ROWS.setdefault((_key.section, _key.name), []).append(_key)
_SECTIONS = tuple(dict.fromkeys(key.section for key in KEYS))
__doc__ = (__doc__ or "") + "".join(f"\n    {k.section}.{k.name} = {k.default}\n        "
                                    f"{k.describe()}" for k in KEYS) + "\n"


@dataclass
class RunConfig:
    chart: dict = field(default_factory=dict)
    target: dict = field(default_factory=dict)
    scenario: dict = field(default_factory=dict)
    solver: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)
    source_text: str = ""
    # "section.key" -> the number of the line that set it
    line_of: dict = field(default_factory=dict)

    def where(self, section: str, key: str) -> str:
        ln = self.line_of.get(f"{section}.{key}")
        return "" if ln is None else f"line {ln}: "

    def sha256(self) -> str:
        """Hash of the config file text, recorded in every report."""
        return hashlib.sha256(self.source_text.encode()).hexdigest()

    def row(self, section: str, key: str) -> Key:
        """The table row for ``key`` under the configured topology and scenario."""
        rows = _ROWS[(section, key)]
        if not rows[0].readers:
            return rows[0]
        scope = {self.get("chart", "topology"), self.get("scenario", "kind")}
        for row in rows:
            if scope & set(row.readers):
                return row
        readers = " or ".join(r for row in rows for r in row.readers)
        raise ConfigError(f"{self.where(section, key)}{section}.{key} is only read for {readers}")

    def get(self, section: str, key: str):
        """Typed, range-checked value of ``key`` (its default when unset)."""
        row = self.row(section, key)
        try:
            return row.parse(getattr(self, section).get(key, row.default))
        except ValueError as exc:
            raise ConfigError(f"{self.where(section, key)}{section}.{key}: {exc}") from None


def parse_config(text: str) -> RunConfig:
    """Parse and validate config text; raises ConfigError naming the bad line."""
    cfg = RunConfig(source_text=text)
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section [{name}]")
            section = name
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: entry before any [section] header")
        key, value = (part.strip() for part in line.split("=", 1))
        if (section, key) not in _ROWS:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
        getattr(cfg, section)[key] = value
        cfg.line_of[f"{section}.{key}"] = lineno
    _validate(cfg)
    return cfg


def load_config(path) -> RunConfig:
    """``parse_config`` of the UTF-8 file at ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None
    return parse_config(text)


def _validate(cfg: RunConfig) -> None:
    """Check every key present and the rules that span keys.  Scenario
    parameters are parsed where build_pair reads them."""
    for section in _SECTIONS:
        for key in getattr(cfg, section):
            if section == "scenario" and key != "kind":
                cfg.row(section, key)
            else:
                cfg.get(section, key)
    kind = cfg.get("scenario", "kind")
    if kind == "elliptic_pair" and cfg.get("chart", "topology") != "torus":
        raise ConfigError(f"{cfg.where('scenario', 'kind')}scenario.kind = elliptic_pair "
                          "needs chart.topology = torus")


def build_chart(cfg: RunConfig, n_override: int | None = None) -> DomainChart:
    n = n_override if n_override is not None else cfg.get("chart", "n")
    topology = cfg.get("chart", "topology")
    window = cfg.get("chart", "window") if topology == "torus" else None
    chart = DomainChart(n, cfg.get("chart", "side"), topology, window)
    if not chart.interior_mask.any():  # every sup and integral runs over it
        raise ConfigError(f"{cfg.where('chart', 'n')}chart.n = {n} leaves no node in the chart's "
                          "interior (|z| <= 1 - 4h on a disk, the window on a torus)")
    return chart


def build_solver_config(cfg: RunConfig) -> SolverConfig:
    values = {row.name: cfg.get("solver", row.name) for row in KEYS if row.section == "solver"}
    return SolverConfig(**values, seed=cfg.get("output", "seed"))


@np.errstate(all="ignore")  # an overflow is reported once, by the check at the end
def build_pair(cfg: RunConfig, n_override: int | None = None
               ) -> tuple[MapField, TwistedSpinorField]:
    """The configured scenario's fields at chart.n or ``n_override``; a pair
    ``check_pair`` rejects is a config error."""
    chart = build_chart(cfg, n_override)
    kind = cfg.get("scenario", "kind")
    sc = partial(cfg.get, "scenario")
    where = f"{cfg.where('scenario', 'kind')}scenario {kind}"
    try:
        if kind == "twistor_pushforward":
            rmap = RationalMap(sc("rational_num"), sc("rational_den"))
            phi = conformal_map_field(rmap, chart)
            psi = twistor_pushforward(phi, np.array(sc("psi0")), np.array(sc("psi1")))
        elif kind == "elliptic_pair":
            phi = elliptic_conformal_field(chart, scale=sc("map_scale"))
            psi = twistor_pushforward(phi, np.array(sc("psi0")), np.zeros(2, dtype=complex))
        elif kind == "harmonic_wrap":
            phi = harmonic_wrap(chart, winding=sc("winding"))
            psi = TwistedSpinorField.zero(chart, phi.target)
        elif kind == "constant_spinor":
            dim = cfg.get("target", "dim")
            target = Sphere(dim) if cfg.get("target", "kind") == "sphere" else Flat(dim)
            phi, psi = constant_spinor_pair(chart, target, sc("base_point"),
                                            sc("spinor_direction"), sc("spinor_components"))
        else:
            base = np.array(sc("base_point"))
            if base.shape != (3,):
                raise ValueError(f"base point needs 3 components, got {base.size}")
            rng = np.random.default_rng(cfg.get("output", "seed"))
            sphere = Sphere(2)
            pert = bandlimited_field(chart, rng, components=(3,), kmax=max(sc("modes")),
                                     amplitude=sc("amplitude"), modes=sc("modes"))
            phi = MapField(chart, sphere, sphere.project_point(base + pert))
            psi = TwistedSpinorField.zero(chart, sphere)
        check_pair(phi, psi)
    except ValueError as exc:  # data no single key can judge, e.g. a degenerate map
        raise ConfigError(f"{where}: {exc}") from None
    return phi, psi
