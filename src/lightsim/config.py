"""Scenario configuration files.

Flat INI-style text (``[section]`` headers, ``key = value`` lines, UTF-8).
`validate` checks every scenario config, from a file or not, against the
scenario's section schemas: unknown sections or keys, missing required keys,
non-finite numbers and values outside a key's domain are configuration
errors; absent optional keys and sections get their defaults.  Floats accept
plain or scientific notation; lists are comma separated.
"""

import configparser
import math
import operator
from dataclasses import dataclass, replace

from .elements import MIN_SAMPLES_PER_PERIOD
from .errors import ConfigError

_ANGLE_ALIASES = {"pi": math.pi, "pi/2": math.pi / 2, "pi/4": math.pi / 4}


def _parse_float(value):
    if isinstance(value, str):
        value = _ANGLE_ALIASES.get(value.strip().lower(), value)
    if not math.isfinite(value := float(value)):
        raise ValueError("expected a finite number")
    return value


def _parse_int(value):
    return int(value) if isinstance(value, str) else operator.index(value)


def _parse_float_list(value):
    if isinstance(value, str):
        value = [part for part in value.split(",") if part.strip()]
    return [_parse_float(v) for v in value]


@dataclass
class Key:
    """One key: `parse` takes INI text or an already typed value (a float
    by default) and raises ValueError or TypeError on anything else;
    `check` is (predicate, message) on its parsed value."""

    name: str
    parse: object = _parse_float
    required: bool = False
    default: object = None
    check: tuple = None


@dataclass
class SectionSchema:
    """One section; `check` is (predicate, message) on its defaulted keys."""

    name: str
    keys: list
    required: bool = False
    check: tuple = None


# The waist keys each beam kind needs; l, p and tilt have defaults.
BEAM_WAIST_KEYS = {"gaussian": ("w0",), "elliptical": ("wx", "wy"),
                   "lg": ("w0",), "vortex": ("w0",)}

GRID_SECTION = SectionSchema("grid", [
    # n > 0 for the pitch, n <= 8192 (a 1 GiB map); Grid checks the rest
    Key("n", _parse_int, default=512,
        check=(lambda n: 0 < n <= 8192, "must be in 1..8192")),
    Key("window", required=True),
    Key("wavelength", required=True),
], required=True)

BEAM_SECTION = SectionSchema("beam", [
    Key("kind", str.strip, required=True,
        check=(BEAM_WAIST_KEYS.__contains__,
               f"must be one of {', '.join(BEAM_WAIST_KEYS)}")),
    Key("w0"),
    Key("wx"),
    Key("wy"),
    Key("tilt", default=0.0),
    Key("l", _parse_int, default=0),
    Key("p", _parse_int, default=0),
], required=True, check=(
    lambda b: all(k in b for k in BEAM_WAIST_KEYS[b["kind"]]),
    "; ".join(f"{kind} needs {', '.join(keys)}"
              for kind, keys in BEAM_WAIST_KEYS.items())))

# The beam section of a scenario that sweeps the LG mode indices itself.
LG_SWEEP_BEAM_SECTION = replace(BEAM_SECTION, check=(
    lambda b: (b["kind"], b["l"], b["p"]) == ("lg", 0, 0) and "w0" in b,
    "lg_oam sweeps l and p itself; it takes kind = lg, w0 and l = p = 0"))

# The q-plate scenarios check half-wave conversion of circular light.
POLARIZATION_SECTION = SectionSchema("polarization", [
    Key("kind", str.strip, required=True,
        check=(("L", "R").__contains__, "must be L or R")),
], required=True)

ELEMENT_SECTION = SectionSchema("element", [
    Key("q", required=True),
    Key("alpha0", default=0.0),
    Key("delta", default=math.pi,
        check=(lambda d: abs(d - math.pi) <= 1e-12, "must be pi")),
], required=True)

ROTATION_SECTION = SectionSchema("rotation", [
    Key("omega", required=True),
    Key("periods", _parse_int, default=16,
        check=(lambda v: v > 0, "must be > 0")),
    # at most 2^20 (16 MiB per complex series); >= 64 per period bounds periods
    Key("samples", _parse_int, default=4096,
        check=(lambda v: v <= 2 ** 20, "must be <= 1048576")),
], required=True, check=(
    lambda r: r["samples"] >= MIN_SAMPLES_PER_PERIOD * r["periods"],
    f"need >= {MIN_SAMPLES_PER_PERIOD} samples per rotation period"))

INTERFERENCE_SECTION = SectionSchema("interference", [
    Key("tilt", required=True),
], required=True)

PROPAGATION_SECTION = SectionSchema("propagation", [
    Key("z_list", _parse_float_list, required=True,
        check=(lambda zs: zs and min(zs) >= 0.0, "needs entries, all >= 0")),
], required=True)

PHOTON_SECTION = SectionSchema("photon", [Key("nu", default=5e14)])

OUTPUT_SECTION = SectionSchema("output", [
    Key("directory", str.strip),
])


@dataclass
class ScenarioConfig:
    """Scenario name plus per-section key maps; `validate` returns one with
    every section of the scenario present and its defaults filled in."""

    name: str
    sections: dict

    def __getitem__(self, section):
        return self.sections[section]


def _validate_section(schema, given):
    unknown = set(given) - {k.name for k in schema.keys}
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in [{schema.name}]")
    values = {}
    for k in schema.keys:
        if k.name in given:
            raw = given[k.name]
            try:
                values[k.name] = k.parse(raw)
                if k.check and not k.check[0](values[k.name]):
                    raise ValueError(k.check[1])
            except (TypeError, ValueError) as exc:
                raise ConfigError(
                    f"[{schema.name}] {k.name} = {raw!r}: {exc}") from None
        elif k.required:
            raise ConfigError(f"missing key {k.name!r} in [{schema.name}]")
        elif k.default is not None:
            values[k.name] = k.default
    if schema.check and not schema.check[0](values):
        raise ConfigError(f"[{schema.name}] {schema.check[1]}")
    return values


def validate(name, sections, schemas):
    """Check `sections`, {section: {key: text or value}}, against the
    scenario's section schemas; returns the typed, defaulted config."""
    unknown = set(sections) - {s.name for s in schemas}
    if unknown:
        raise ConfigError(f"unknown sections {sorted(unknown)}")
    out = {}
    for schema in schemas:
        if schema.required and schema.name not in sections:
            raise ConfigError(f"missing section [{schema.name}]")
        out[schema.name] = _validate_section(schema,
                                             sections.get(schema.name, {}))
    return ScenarioConfig(name, out)


def load_config(path, scenario_schemas):
    """Parse and validate a scenario config file.

    `scenario_schemas` maps scenario name -> list of SectionSchema.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    sections = {s: dict(parser.items(s)) for s in parser.sections()}
    head = SectionSchema("scenario", [Key(
        "name", str.strip, required=True, check=(
            scenario_schemas.__contains__,
            f"must be one of {', '.join(sorted(scenario_schemas))}"))])
    try:
        name = _validate_section(head, sections.pop("scenario", {}))["name"]
        return validate(name, sections, scenario_schemas[name])
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
