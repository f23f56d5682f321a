"""Shipped identity catalog and series-based verification reports."""

import math
import time
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from typing import NamedTuple, Optional

from . import dsl
from .errors import DSLError

__all__ = [
    "IdentityRecord",
    "VerifyReport",
    "load_catalog",
    "parse_catalog",
    "get_identity",
    "verify",
]


class IdentityRecord(NamedTuple):
    """One catalog entry: a named identity with a default truncation."""

    name: str
    left: object
    right: object
    truncation: int
    note: str = ""
    source: str = ""


class VerifyReport(NamedTuple):
    """Outcome of checking one identity as a truncated-series equality.

    ``status`` is "verified" when left - right vanishes identically through
    the demanded truncation, "failed" when a nonzero coefficient appears
    below it, and "error" when evaluation itself broke down (detail says
    why).  ``first_nonzero`` is an (exponent, coefficient) pair or None.
    """

    name: str
    status: str
    grid_denominator: Optional[int]
    truncation_exponent: Optional[Fraction]
    first_nonzero: Optional[tuple]
    elapsed_ms: float
    detail: str = ""

    @property
    def verified(self) -> bool:
        return self.status == "verified"

    def json_dict(self) -> dict:
        first = None
        if self.first_nonzero is not None:
            e, c = self.first_nonzero
            first = {"exponent": str(e), "coefficient": str(c)}
        texp = self.truncation_exponent
        return {
            "name": self.name,
            "status": self.status,
            "grid_denominator": self.grid_denominator,
            "truncation_exponent": None if texp is None else str(texp),
            "first_nonzero": first,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


def parse_catalog(text: str) -> dict:
    """Parse the catalog format: `# name:` / `# order:` / `# note:` headers,
    then one identity per line."""
    records = {}
    fields = {}
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, sep, value = line[1:].partition(":")
            key = key.strip()
            if sep and key in ("name", "order", "note"):
                if key in fields:
                    raise DSLError(f"duplicate {key!r} header", number, 1)
                fields[key] = value.strip()
            continue
        name = fields.get("name")
        if name is None:
            raise DSLError("identity without a '# name:' header", number, 1)
        if name in records:
            raise DSLError(f"duplicate identity name {name!r}", number, 1)
        try:
            left, right = dsl.parse_identity(line)
        except DSLError as err:
            raise DSLError(f"in identity {name!r}: {err}") from err
        try:
            order = int(fields.get("order", 40))
        except ValueError:
            raise DSLError(f"bad order for identity {name!r}", number, 1)
        records[name] = IdentityRecord(
            name, left, right, order, fields.get("note", ""), line
        )
        fields = {}
    if fields:
        raise DSLError("headers without an identity at end of catalog")
    return records


@lru_cache(maxsize=1)
def load_catalog() -> dict:
    """The identities shipped with the package, keyed by name."""
    text = (
        resources.files("qlambert").joinpath("data/identities.txt").read_text()
    )
    return parse_catalog(text)


def get_identity(name: str) -> IdentityRecord:
    try:
        return load_catalog()[name]
    except KeyError:
        raise KeyError(f"unknown identity {name!r}") from None


def verify(record, truncation=None) -> VerifyReport:
    """Check left - right == 0 through the demanded truncation.

    Accepts an IdentityRecord or a catalog name.  Both sides are evaluated
    once, at a window 16 orders past the demanded truncation.  Only when the
    difference is known less far than the demanded truncation are they
    evaluated once more, at a window wider by the shortfall plus a margin of
    4; every leaf's truncation grows with the window, so the wider window
    covers the demanded truncation.  Evaluation failures, and a difference
    that the wider window still leaves short, are reported with status
    "error" rather than raised.
    """
    if isinstance(record, str):
        record = get_identity(record)
    demanded = record.truncation if truncation is None else int(truncation)
    if demanded < 1:
        raise ValueError("truncation must be a positive integer")
    start = time.perf_counter()
    status, grid, texp, first, detail = "error", None, None, None, ""
    try:
        window = demanded + 16
        diff = dsl.evaluate(record.left, window) - dsl.evaluate(record.right, window)
        end = diff.truncation_exponent()
        if end is not None and end < demanded:
            window = demanded + math.ceil(window - end) + 4
            diff = dsl.evaluate(record.left, window) - dsl.evaluate(
                record.right, window
            )
        head = diff.truncate(demanded)
        grid = head.D
        texp = head.truncation_exponent()
        if not head.is_zero():
            status = "failed"
            first = next(head.items())
        elif texp is None or texp >= demanded:
            status = "verified"
        else:
            detail = (
                "window kept collapsing: got q^%s of the demanded q^%d"
                % (texp, demanded)
            )
            grid, texp = None, None
    except (ArithmeticError, ValueError) as err:
        detail = str(err)
        grid, texp, first = None, None, None
    elapsed = (time.perf_counter() - start) * 1000.0
    return VerifyReport(record.name, status, grid, texp, first, elapsed, detail)
