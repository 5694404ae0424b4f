"""Loading of YAML configuration documents.

All quantities live in SI units internally; conversions happen here, at the
I/O boundary, driven by unit-suffixed key names (pressure_mbar, radius_nm,
apogee_altitude_km, residence_time_h, ...).  The files shipped under
macrocoh/data/ are written in the JSON subset of YAML and parsed by `json`,
so a run on packaged data never imports PyYAML.  A user's file may be any
YAML: PyYAML is imported on the first one, and libyaml parses it when PyYAML
has it; both parsers feed the same safe constructors and give equal mappings.
"""

import json
import os
import sys
from operator import attrgetter

_LOADER = None  # PyYAML's safe loader class, chosen on the first user file
_DATA = os.path.join(os.path.dirname(__file__), "data")  # the packaged files
_REQUIRED = object()  # the default of a field that has none


class ConfigError(ValueError):
    """Invalid or incomplete configuration; the message names the bad field."""


def load_document(path, *packaged):
    """(mapping, source name) of the YAML file at `path`, or, when path is
    None, of the file shipped under macrocoh/data/ at `packaged`, which is
    JSON text and parsed by `json`."""
    if path is None:
        source = f"<packaged {'/'.join(packaged)}>"
        try:
            with open(os.path.join(_DATA, *packaged), encoding="utf-8") as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{source}: malformed JSON at line {exc.lineno}: "
                              f"{exc.msg}") from None
    else:
        source, doc = str(path), _yaml_document(path)
    if not isinstance(doc, dict):
        raise ConfigError(f"{source}: top level must be a mapping")
    return doc, source


def _yaml_document(path):
    """The parsed YAML file at `path`; a ConfigError naming the file, and the
    line of bad syntax, when it cannot be read or parsed."""
    global _LOADER
    import yaml

    if _LOADER is None:
        _LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return yaml.load(fh, Loader=_LOADER)
    except FileNotFoundError:
        raise ConfigError(f"{path}: file not found") from None
    except OSError as exc:  # a directory, no permission, ...
        raise ConfigError(f"{path}: cannot read: {exc.strerror}") from None
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark is not None else ""
        raise ConfigError(f"{path}: malformed YAML{where}: {exc}") from None


def section(doc, key, path):
    value = doc.get(key)
    if not isinstance(value, dict):
        raise ConfigError(f"{path}.{key}: missing or not a mapping")
    return value


def number(doc, key, path, default=_REQUIRED):
    """Finite numeric field as a float; `default` as given when it is absent."""
    if key not in doc:
        if default is _REQUIRED:
            raise ConfigError(f"{path}.{key}: missing required field")
        return default
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number, got {value!r}"
                          + _spelling_hint(value))
    if not abs(value) <= sys.float_info.max:  # NaN, inf or beyond a float
        raise ConfigError(f"{path}.{key}: expected a finite number, "
                          f"got {value!r}")
    return float(value)


def _spelling_hint(value):
    # PyYAML reads floats as YAML 1.1 writes them, with a '.' and a signed
    # exponent, so 1e-08, 1e8 and 1.0e8 reach `number` as text; a number
    # without an exponent ('10') is text only when it was quoted
    try:
        if (isinstance(value, str) and "e" in value.lower()
                and abs(float(value)) <= sys.float_info.max):
            return ("; YAML 1.1 reads it as text: write a '.' and a signed "
                    "exponent, as in 1.0e-08")
    except ValueError:
        pass
    return ""


def pair(doc, key, path):
    """Two numbers given as a [low, high] list."""
    value = doc.get(key)
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{path}.{key}: expected [low, high], got {value!r}")
    return [number(dict(enumerate(value)), i, f"{path}.{key}") for i in (0, 1)]


def entries(doc, key, path):
    """(name, mapping, dotted path) of each entry of the mapping of mappings
    at `key`."""
    table = section(doc, key, path)
    path = f"{path}.{key}"
    return [(name, section(table, name, path), f"{path}.{name}")
            for name in table]


def quantity(doc, path, options, default=_REQUIRED):
    """Numeric field accepted under one of several unit-suffixed keys.

    `options` maps key name -> multiplier to SI.  Exactly one of the keys may
    be present; a missing field is `default` as given (already in SI), or an
    error naming all accepted spellings when no default is given.
    """
    present = [key for key in options if key in doc]
    if len(present) > 1:
        raise ConfigError(f"{path}: give only one of {sorted(options)}")
    if not present:
        if default is _REQUIRED:
            raise ConfigError(f"{path}: missing one of {sorted(options)}")
        return default
    key = present[0]
    return number(doc, key, path) * options[key]


def record(cls):
    """Make `cls` a frozen record of its annotated fields, in their order.

    `__init__` takes the fields by position or keyword, fills in the class
    defaults and then runs the class's `__post_init__` check.  Assigning or
    deleting an attribute raises; functools.cached_property still works, as it
    writes the instance `__dict__` directly.  Equality, unless the class
    defines its own, hash and repr go over the field values.  Nothing is
    compiled, so building a record class costs microseconds.
    """
    names = tuple(cls.__annotations__)
    known = frozenset(names)
    defaults = {name: cls.__dict__[name] for name in names
                if name in cls.__dict__}
    check = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        if args:
            given = dict(zip(names, args))
            if len(args) > len(names) or not given.keys().isdisjoint(kwargs):
                raise TypeError(f"{cls.__name__}() takes the fields {names}")
            kwargs.update(given)
        if not kwargs.keys() <= known:
            raise TypeError(f"{cls.__name__}() takes the fields {names}")
        state = self.__dict__
        for name in names:
            if name in kwargs:
                state[name] = kwargs[name]
            elif name in defaults:
                state[name] = defaults[name]
            else:
                raise TypeError(f"{cls.__name__}() missing field {name!r}")
        if check is not None:
            check(self)

    values = attrgetter(*names)  # a tuple, as every record has 2+ fields

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __repr__(self):
        fields = map("{}={!r}".format, names, values(self))
        return f"{cls.__qualname__}({', '.join(fields)})"

    def frozen(self, name, *_):
        raise AttributeError(f"{cls.__name__} is frozen: cannot set {name!r}")

    cls.__init__, cls.__repr__ = __init__, __repr__
    cls.__eq__ = cls.__dict__.get("__eq__", __eq__)
    cls.__hash__ = lambda self: hash(values(self))
    cls.__setattr__ = cls.__delattr__ = frozen
    cls._fields = names
    return cls


def replace(obj, **changes):
    """A copy of the record `obj` with the given fields changed, checked
    again by its `__post_init__`."""
    fields = dict(zip(obj._fields, attrgetter(*obj._fields)(obj)))
    fields.update(changes)
    return type(obj)(**fields)


def build(make, path, *args, **fields):
    """make(*args, **fields), a ValueError of its own range checks re-raised
    as a ConfigError naming `path`: the dotted path of the mapping the values
    were read from, or the flags that gave them."""
    try:
        return make(*args, **fields)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def csv_text(header, rows):
    """CSV text of a header and rows; each cell is str(cell), which for a
    float is its round-trip repr ('inf' and 'nan' included)."""
    return "".join(",".join(map(str, row)) + "\n"
                   for row in [header, *rows])
