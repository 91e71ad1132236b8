"""Plain-text system files.

The format keeps exactness on disk: "1/5" and "3" parse to rationals,
"0.2" to a float.  The parsed scalars go to IfsSystem as they are, so
its rule decides the system's kind: any float makes the whole system
floating, with a MixedScalarWarning only when a non-integer rational
such as "1/5" is rounded.

    # four-piece example
    param a = 1/5
    interval 0 1
    map 1/5 1/5 a 0 0
    map 1/3 -1/5 -1/5 1/5 1/5

`param NAME = VALUE` defines a named value usable in any later scalar
slot; a name that reads as a number or holds a "/" is refused, so no
parameter shadows a number.  Either `#` or `;` starts a comment,
full-line or trailing.
"""

from .affine import Affine2
from .errors import SpecFormatError
from .scalars import format_scalar, parse_scalar
from .systems import IfsSystem

_KEYWORDS = ("param", "interval", "map")


def _strip_comment(line: str) -> str:
    for mark in ("#", ";"):
        pos = line.find(mark)
        if pos >= 0:
            line = line[:pos]
    return line.strip()


def parse_ifs_text(text: str, name: str = "<string>") -> IfsSystem:
    """Parse a system description; raises SpecFormatError with the
    offending line number on malformed input."""
    params = {}
    interval = None
    maps = []

    def scalar(token, lineno):
        if token in params:
            return params[token]
        try:
            return parse_scalar(token)
        except ValueError as exc:
            raise SpecFormatError(f"{name}:{lineno}: {exc}") from None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        fields = line.split()
        kw = fields[0]
        if kw == "param":
            # param NAME = VALUE
            if len(fields) != 4 or fields[2] != "=":
                raise SpecFormatError(
                    f"{name}:{lineno}: expected 'param NAME = VALUE'"
                )
            pname = fields[1]
            if pname in _KEYWORDS or pname in params:
                raise SpecFormatError(
                    f"{name}:{lineno}: bad or duplicate parameter name {pname!r}"
                )
            try:
                float(pname)
            except ValueError:
                looks_numeric = "/" in pname
            else:
                looks_numeric = True
            if looks_numeric:
                raise SpecFormatError(
                    f"{name}:{lineno}: parameter name {pname!r} looks like a number"
                )
            params[pname] = scalar(fields[3], lineno)
        elif kw == "interval":
            if len(fields) != 3:
                raise SpecFormatError(f"{name}:{lineno}: expected 'interval A B'")
            if interval is not None:
                raise SpecFormatError(f"{name}:{lineno}: duplicate interval")
            interval = (scalar(fields[1], lineno), scalar(fields[2], lineno))
        elif kw == "map":
            if len(fields) != 6:
                raise SpecFormatError(f"{name}:{lineno}: expected 'map P Q R H S'")
            p, q, r, h, s = (scalar(t, lineno) for t in fields[1:])
            maps.append(Affine2(p, q, r, h, s))
        else:
            raise SpecFormatError(f"{name}:{lineno}: unknown directive {kw!r}")

    if interval is None:
        raise SpecFormatError(f"{name}: missing 'interval A B' line")
    if not maps:
        raise SpecFormatError(f"{name}: no 'map' lines")
    try:
        return IfsSystem(tuple(maps), interval)
    except ValueError as exc:
        raise SpecFormatError(f"{name}: {exc}") from None


def parse_ifs_file(path) -> IfsSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_ifs_text(fh.read(), name=str(path))


def emit_ifs_text(system: IfsSystem) -> str:
    """Serialize a system; parse(emit(s)) reproduces s value for value."""
    lines = [
        "interval {} {}".format(format_scalar(system.a), format_scalar(system.b))
    ]
    for g in system.maps:
        lines.append("map " + " ".join(
            format_scalar(v) for v in (g.p, g.q, g.r, g.h, g.s)
        ))
    return "\n".join(lines) + "\n"


def write_ifs_file(path, system: IfsSystem) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(emit_ifs_text(system))
