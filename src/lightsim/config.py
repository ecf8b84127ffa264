"""Scenario configuration files.

Flat INI-style text (``[section]`` headers, ``key = value`` lines, UTF-8).
Every scenario declares the sections and keys it understands; unknown
sections or keys are configuration errors, as are missing required keys.
Floats accept plain or scientific notation; lists are comma separated.
"""

import configparser
import math
from dataclasses import dataclass, field

from .errors import ConfigError

_ANGLE_ALIASES = {"pi": math.pi, "pi/2": math.pi / 2, "pi/4": math.pi / 4}


def _parse_float(text):
    key = text.strip().lower()
    if key in _ANGLE_ALIASES:
        return _ANGLE_ALIASES[key]
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None


def _parse_int(text):
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}") from None


def _parse_float_list(text):
    return [_parse_float(part) for part in text.split(",") if part.strip()]


PARSERS = {
    "float": _parse_float,
    "int": _parse_int,
    "str": str.strip,
    "float_list": _parse_float_list,
}


@dataclass
class Key:
    name: str
    kind: str = "float"
    required: bool = False
    default: object = None


@dataclass
class SectionSchema:
    name: str
    keys: list
    required: bool = False


# Sections shared by most scenarios.
GRID_SECTION = SectionSchema("grid", [
    Key("n", "int", default=512),
    Key("window", "float", required=True),
    Key("wavelength", "float", required=True),
], required=True)

BEAM_SECTION = SectionSchema("beam", [
    Key("kind", "str", required=True),
    Key("w0", "float"),
    Key("wx", "float"),
    Key("wy", "float"),
    Key("tilt", "float", default=0.0),
    Key("l", "int", default=0),
    Key("p", "int", default=0),
], required=True)

POLARIZATION_SECTION = SectionSchema("polarization", [
    Key("kind", "str", required=True),
], required=True)

ELEMENT_SECTION = SectionSchema("element", [
    Key("q", "float", required=True),
    Key("alpha0", "float", default=0.0),
    Key("delta", "float", default=math.pi),
], required=True)

ROTATION_SECTION = SectionSchema("rotation", [
    Key("omega", "float", required=True),
    Key("periods", "int", default=16),
    Key("samples", "int", default=4096),
], required=True)

INTERFERENCE_SECTION = SectionSchema("interference", [
    Key("tilt", "float", required=True),
], required=True)

PROPAGATION_SECTION = SectionSchema("propagation", [
    Key("z_list", "float_list", required=True),
], required=True)

OUTPUT_SECTION = SectionSchema("output", [
    Key("directory", "str"),
], required=False)


@dataclass
class ScenarioConfig:
    """Validated scenario configuration: name plus per-section key maps."""

    name: str
    sections: dict = field(default_factory=dict)

    def __getitem__(self, section):
        return self.sections[section]

    def get(self, section, key, default=None):
        return self.sections.get(section, {}).get(key, default)


def validate_sections(parser, schemas, path="<config>"):
    """Check a parsed INI file against section schemas; returns dicts."""
    by_name = {s.name: s for s in schemas}
    out = {}
    for section in parser.sections():
        if section == "scenario":
            continue
        if section not in by_name:
            raise ConfigError(f"{path}: unknown section [{section}]")
        schema = by_name[section]
        keys = {k.name: k for k in schema.keys}
        values = {}
        for name, raw in parser.items(section):
            if name not in keys:
                raise ConfigError(
                    f"{path}: unknown key {name!r} in section [{section}]")
            values[name] = PARSERS[keys[name].kind](raw)
        for k in schema.keys:
            if k.name not in values:
                if k.required:
                    raise ConfigError(
                        f"{path}: missing key {k.name!r} in [{section}]")
                if k.default is not None:
                    values[k.name] = k.default
        out[section] = values
    for schema in schemas:
        if schema.required and schema.name not in out:
            raise ConfigError(f"{path}: missing section [{schema.name}]")
    return out


def load_config(path, scenario_schemas):
    """Parse and validate a scenario config file.

    `scenario_schemas` maps scenario name -> list of SectionSchema.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not parser.has_section("scenario"):
        raise ConfigError(f"{path}: missing [scenario] section")
    extra = set(parser["scenario"]) - {"name"}
    if extra:
        raise ConfigError(f"{path}: unknown keys in [scenario]: {sorted(extra)}")
    name = parser.get("scenario", "name", fallback=None)
    if not name:
        raise ConfigError(f"{path}: [scenario] needs a 'name' key")
    name = name.strip()
    if name not in scenario_schemas:
        raise ConfigError(
            f"{path}: unknown scenario {name!r}; known scenarios: "
            f"{sorted(scenario_schemas)}")
    sections = validate_sections(parser, scenario_schemas[name], path)
    return ScenarioConfig(name, sections)
