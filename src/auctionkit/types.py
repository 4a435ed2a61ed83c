"""Core value types for position-auction markets.

A market instance is n bidders facing m independent position auctions.
Auction j has slots[j] slots whose click weights pos[j] are strictly
positive and nonincreasing; bidder i values a click in auction j at
values[i, j].  All types are immutable after construction and carry
float64 numpy arrays marked read-only.
"""

from __future__ import annotations

import enum
import json
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Any, Callable, Optional, Sequence

import numpy as np


class AuctionFormat(enum.Enum):
    VCG = "VCG"
    GSP = "GSP"
    FPA = "FPA"


def _as_matrix(a: Any, n: int, m: int, name: str) -> np.ndarray:
    # always copy so freezing never makes the caller's array read-only
    arr = np.array(a, dtype=np.float64, order="C")
    if arr.shape != (n, m):
        raise ValueError(f"{name} must have shape ({n}, {m}), got {arr.shape}")
    arr.setflags(write=False)
    return arr


def _as_vector(a: Any, name: str) -> np.ndarray:
    # a frozen float64 array that owns its data can be shared as it is
    frozen = type(a) is np.ndarray and a.dtype == np.float64 and a.flags.owndata and not a.flags.writeable
    arr = a if frozen else np.array(a, dtype=np.float64, order="C")
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """n bidders, m position auctions, per-auction slot counts and click weights.

    pos is a tuple of m arrays; pos[j] has length slots[j].  The weight of
    a hypothetical slot past the last one is 0 by convention everywhere.
    """

    n: int
    m: int
    slots: tuple[int, ...]
    values: np.ndarray
    pos: tuple[np.ndarray, ...]

    def __init__(self, n: int, m: int, slots: Sequence[int], values: Any, pos: Sequence[Any]):
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "m", int(m))
        object.__setattr__(self, "slots", tuple(int(s) for s in slots))
        object.__setattr__(self, "values", _as_matrix(values, self.n, self.m, "values"))
        object.__setattr__(self, "pos", tuple(_as_vector(p, f"pos[{j}]") for j, p in enumerate(pos)))

    @cached_property
    def issues(self) -> tuple[str, ...]:
        """Itemized invariant violations; empty means the instance is valid.

        The per-auction checks run as array passes over all auctions at
        once: slot counts against 1 and n, then, on the concatenated pos
        vectors, each auction's length, finiteness, positivity and whether
        it rises within its own segment.  Messages are then written only
        for the flagged auctions, in auction order.  An auction with a slot
        count below 1 gets that message alone, and of the three pos value
        checks only the first that fails is reported.
        """
        out: list[str] = []
        if self.n < 1:
            out.append("n must be at least 1")
        if self.m < 0:
            out.append("m must be nonnegative")
        if len(self.slots) != self.m:
            out.append(f"slots has length {len(self.slots)}, expected m={self.m}")
        if len(self.pos) != self.m:
            out.append(f"pos has length {len(self.pos)}, expected m={self.m}")
        if not np.all(np.isfinite(self.values)):
            out.append("values must be finite")
        if np.any(self.values < 0):
            out.append("values must be nonnegative")

        # object dtype keeps slot counts past the int64 range comparable
        counts = np.array(self.slots)
        few, many = counts < 1, counts > self.n
        k = min(len(self.slots), len(self.pos))  # auctions with both a count and a pos vector
        lengths = np.fromiter(map(len, self.pos[:k]), dtype=np.int64, count=k)
        bad_len = lengths != counts[:k]
        flat = np.concatenate([np.zeros(0), *self.pos[:k]])
        seg = np.repeat(np.arange(k), lengths)  # auction of each entry of flat
        nonfinite = np.bincount(seg[~np.isfinite(flat)], minlength=k) > 0
        nonpositive = np.bincount(seg[flat <= 0], minlength=k) > 0
        # only read for finite, positive segments, where a > b is diff > 0
        up = (flat[1:] > flat[:-1]) & (seg[1:] == seg[:-1])
        rising = np.bincount(seg[1:][up], minlength=k) > 0
        flagged = few | many
        flagged[:k] |= bad_len | nonfinite | nonpositive | rising
        for j in np.flatnonzero(flagged).tolist():
            s = self.slots[j]
            if few[j]:
                out.append(f"auction {j}: slot count must be at least 1")
                continue
            if many[j]:
                out.append(f"auction {j}: more slots than bidders ({s} > {self.n})")
            if j < k:
                if bad_len[j]:
                    out.append(f"auction {j}: pos has length {lengths[j]}, expected {s}")
                if nonfinite[j]:
                    out.append(f"auction {j}: pos must be finite")
                elif nonpositive[j]:
                    out.append(f"auction {j}: pos must be strictly positive")
                elif rising[j]:
                    out.append(f"auction {j}: pos not nonincreasing")
        return tuple(out)

    def require_valid(self) -> None:
        if self.issues:
            raise ValueError("invalid instance: " + "; ".join(self.issues))

    @cached_property
    def slot_array(self) -> np.ndarray:
        """Read-only int64 copy of `slots`, cached; the instance must be valid."""
        self.require_valid()
        arr = np.array(self.slots, dtype=np.int64)
        arr.setflags(write=False)
        return arr

    @cached_property
    def pos_table(self) -> np.ndarray:
        """Read-only (m, s_max + 1) click weights, 0 past each auction's last slot."""
        slots = self.slot_array
        table = np.zeros((self.m, int(slots.max(initial=0)) + 1))
        if self.m:
            table[np.arange(table.shape[1]) < slots[:, None]] = np.concatenate(self.pos)
        table.setflags(write=False)
        return table

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProblemInstance):
            return NotImplemented
        return (
            self.n == other.n
            and self.m == other.m
            and self.slots == other.slots
            and np.array_equal(self.values, other.values)
            and all(np.array_equal(a, b) for a, b in zip(self.pos, other.pos))
        )

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "slots": list(self.slots),
            "values": self.values.tolist(),
            "pos": [p.tolist() for p in self.pos],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ProblemInstance":
        return cls(d["n"], d["m"], d["slots"], d["values"], d["pos"])


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    issues: tuple[str, ...]


def validate_instance(instance: ProblemInstance) -> ValidationResult:
    """Check every structural invariant and return the itemized findings."""
    issues = instance.issues
    return ValidationResult(ok=not issues, issues=issues)


@dataclass(frozen=True, eq=False)
class MechanismConfig:
    """Pricing rule plus per-(bidder, auction) reserve prices and additive boosts.

    A bidder is eligible in auction j only when her bid meets her reserve;
    eligible bidders are ranked by bid + boost.
    """

    format: AuctionFormat
    reserves: np.ndarray
    boosts: np.ndarray

    def __init__(self, format: AuctionFormat, n: int, m: int,
                 reserves: Any = None, boosts: Any = None):
        object.__setattr__(self, "format", AuctionFormat(format))
        z = np.zeros((n, m))
        object.__setattr__(self, "reserves", _as_matrix(z if reserves is None else reserves, n, m, "reserves"))
        object.__setattr__(self, "boosts", _as_matrix(z if boosts is None else boosts, n, m, "boosts"))

    @property
    def n(self) -> int:
        return self.reserves.shape[0]

    @property
    def m(self) -> int:
        return self.reserves.shape[1]

    @cached_property
    def issues(self) -> tuple[str, ...]:
        out = []
        for name, a in (("reserves", self.reserves), ("boosts", self.boosts)):
            if not np.all(np.isfinite(a)):
                out.append(f"{name} must be finite")
            elif np.any(a < 0):
                out.append(f"{name} must be nonnegative")
        return tuple(out)

    def require_valid(self) -> None:
        if self.issues:
            raise ValueError("invalid mechanism config: " + "; ".join(self.issues))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MechanismConfig):
            return NotImplemented
        return (
            self.format == other.format
            and np.array_equal(self.reserves, other.reserves)
            and np.array_equal(self.boosts, other.boosts)
        )

    def to_dict(self) -> dict:
        return {
            "format": self.format.value,
            "reserves": self.reserves.tolist(),
            "boosts": self.boosts.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict, n: Optional[int] = None, m: Optional[int] = None) -> "MechanismConfig":
        # each matrix is converted from its nested lists once; the first one sets the shape
        mats = {k: np.asarray(d[k], dtype=np.float64) for k in ("reserves", "boosts") if d.get(k) is not None}
        if mats:
            n, m = next(iter(mats.values())).shape
        if n is None or m is None:
            raise ValueError("mechanism config without matrices needs explicit n and m")
        return cls(AuctionFormat(d["format"]), n, m, mats.get("reserves"), mats.get("boosts"))


@dataclass(frozen=True, eq=False)
class BidProfile:
    """One bid per bidder per auction."""

    bids: np.ndarray

    def __init__(self, bids: Any):
        arr = np.array(bids, dtype=np.float64, order="C")
        if arr.ndim != 2:
            raise ValueError("bids must be an n x m matrix")
        arr.setflags(write=False)
        object.__setattr__(self, "bids", arr)

    @property
    def n(self) -> int:
        return self.bids.shape[0]

    @property
    def m(self) -> int:
        return self.bids.shape[1]

    @cached_property
    def issues(self) -> tuple[str, ...]:
        if not np.all(np.isfinite(self.bids)):
            return ("bids must be finite",)
        if np.any(self.bids < 0):
            return ("bids must be nonnegative",)
        return ()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BidProfile):
            return NotImplemented
        return np.array_equal(self.bids, other.bids)

    def to_dict(self) -> dict:
        return {"bids": self.bids.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "BidProfile":
        return cls(d["bids"])


@dataclass(frozen=True, eq=False)
class Outcome:
    """Allocation and payments produced by clearing.

    winners is an (m, s_max) int matrix: winners[j, k] is the bidder holding
    slot k of auction j, or -1 when the slot went unfilled (fewer eligible
    bidders than slots) or does not exist (k >= slots[j]).  slots[j] is the
    slot count of auction j.  payments[i, j] is bidder i's total payment in
    auction j; zero for non-winners.
    """

    winners: np.ndarray
    payments: np.ndarray
    slots: tuple[int, ...]

    def __init__(self, winners: Any, payments: Any, slots: Sequence[int]):
        counts = np.asarray(slots)
        if counts.ndim != 1 or counts.dtype.kind not in "iu":
            # anything but a flat integer array converts entry by entry, as int() does
            counts = np.array([int(s) for s in slots], dtype=np.int64)
        slots = tuple(counts.tolist())
        w = np.array(winners, dtype=np.int64, order="C")
        s_max = int(counts.max()) if counts.size else 0
        if w.shape != (len(slots), s_max):
            raise ValueError(f"winners must have shape ({len(slots)}, {s_max}), got {w.shape}")
        if np.any(w[np.arange(s_max) >= counts[:, None]] != -1):
            raise ValueError("winners past an auction's slot count must be -1")
        w.setflags(write=False)
        pay = np.array(payments, dtype=np.float64, order="C")
        pay.setflags(write=False)
        object.__setattr__(self, "winners", w)
        object.__setattr__(self, "payments", pay)
        object.__setattr__(self, "slots", slots)

    def allocation_triples(self) -> list[tuple[int, int, int]]:
        """(bidder, auction, slot) for every filled slot, ordered by (auction, slot)."""
        js, ks = np.nonzero(self.winners >= 0)
        return list(zip(self.winners[js, ks].tolist(), js.tolist(), ks.tolist()))

    def slot_of(self, i: int, j: int) -> Optional[int]:
        hits = np.nonzero(self.winners[j] == i)[0]
        return int(hits[0]) if hits.size else None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Outcome):
            return NotImplemented
        return (
            self.slots == other.slots
            and np.array_equal(self.winners, other.winners)
            and np.array_equal(self.payments, other.payments)
        )

    def to_dict(self) -> dict:
        js, ks = np.nonzero(self.winners >= 0)
        return {
            "allocation": np.stack([self.winners[js, ks], js, ks], axis=1).tolist(),
            "payments": self.payments.tolist(),
            "slots": list(self.slots),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Outcome":
        payments = np.asarray(d["payments"], dtype=np.float64)
        slots = d.get("slots")
        if slots is None:
            m = payments.shape[1]
            slots = [0] * m
            for _, j, k in d["allocation"]:
                slots[j] = max(slots[j], k + 1)
        winners = np.full((len(slots), max(slots, default=0)), -1, dtype=np.int64)
        for i, j, k in d["allocation"]:
            winners[j, k] = i
        return cls(winners, payments, slots)


@dataclass(frozen=True, eq=False)
class AgentState:
    """Per-bidder objective mix and uniform bid multiplier.

    lambdas[i] in [0, 1] interpolates between a value maximizer (0) and a
    utility maximizer (1); multipliers[i] > 0 scales bidder i's values into
    uniform bids.
    """

    lambdas: np.ndarray
    multipliers: np.ndarray

    def __init__(self, lambdas: Any, multipliers: Any):
        object.__setattr__(self, "lambdas", _as_vector(lambdas, "lambdas"))
        object.__setattr__(self, "multipliers", _as_vector(multipliers, "multipliers"))

    @cached_property
    def issues(self) -> tuple[str, ...]:
        out = []
        if self.lambdas.shape != self.multipliers.shape:
            out.append("lambdas and multipliers must have equal length")
        if np.any(self.lambdas < 0) or np.any(self.lambdas > 1):
            out.append("lambdas must lie in [0, 1]")
        if np.any(self.multipliers <= 0) or not np.all(np.isfinite(self.multipliers)):
            out.append("multipliers must be positive and finite")
        return tuple(out)

    def require_valid(self) -> None:
        if self.issues:
            raise ValueError("invalid agent state: " + "; ".join(self.issues))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AgentState):
            return NotImplemented
        return np.array_equal(self.lambdas, other.lambdas) and np.array_equal(
            self.multipliers, other.multipliers
        )

    def to_dict(self) -> dict:
        return {"lambdas": self.lambdas.tolist(), "multipliers": self.multipliers.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "AgentState":
        return cls(d["lambdas"], d["multipliers"])


def dumps(obj: Any, **kwargs: Any) -> str:
    """Serialize any of the value types above to a JSON string."""
    return json.dumps(obj.to_dict(), **kwargs)


def save_json(obj: Any, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(_indented_json(obj.to_dict()) + "\n")


@lru_cache(maxsize=None)
def _flat_encoder(depth: int) -> json.JSONEncoder:
    # without indent json runs its C encoder; the line break rides in the item separator
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * depth, ": "))


def _indented_json(obj: Any, depth: int = 0) -> str:
    """Exactly json.dumps(obj, indent=2, sort_keys=True), which encodes in
    pure Python.  Here every list or object that holds no container, and
    every list of number lists, is one call to the C encoder."""
    containers = (dict, list, tuple)
    if not isinstance(obj, containers) or not obj:
        return _flat_encoder(0).encode(obj)
    pad, inner = "\n" + "  " * depth, "\n" + "  " * (depth + 1)
    if not any(isinstance(x, containers) for x in (obj.values() if isinstance(obj, dict) else obj)):
        text = _flat_encoder(depth + 1).encode(obj)
        return text[0] + inner + text[1:-1] + pad + text[-1]
    if isinstance(obj, dict):
        if not all(isinstance(k, str) for k in obj):  # json converts and orders such keys itself
            return json.dumps(obj, indent=2, sort_keys=True).replace("\n", pad)
        body = [json.encoder.encode_basestring_ascii(k) + ": " + _indented_json(obj[k], depth + 1)
                for k in sorted(obj)]
        return "{" + inner + ("," + inner).join(body) + pad + "}"
    if all(isinstance(x, (list, tuple)) and x for x in obj):
        deep = "\n" + "  " * (depth + 2)
        text = _flat_encoder(depth + 2).encode(obj)
        # encoded strings hold no raw line break, so with no objects and no deeper
        # lists "],<deep>[" only sits between two rows
        if "{" not in text and text.count("[") == len(obj) + 1:
            rows = text[2:-2].replace("]," + deep + "[", inner + "]," + inner + "[" + deep)
            return "[" + inner + "[" + deep + rows + inner + "]" + pad + "]"
    return "[" + inner + ("," + inner).join(_indented_json(x, depth + 1) for x in obj) + pad + "]"


def load_json(cls: type, path: str) -> Any:
    """Read one value type from a JSON file; a malformed file raises a
    one-line ValueError naming the file."""
    return _parse_json_file(path, cls.from_dict)


def _parse_json_file(path: str, parse: Callable[[dict], Any]) -> Any:
    """parse(d) for the JSON object d in a file.  A top level that is not
    an object, and the KeyError, IndexError, OverflowError, TypeError or
    ValueError parse raises, become one-line ValueErrors naming the file."""
    with open(path) as fh:
        d = json.load(fh)
    if not isinstance(d, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(d).__name__}")
    try:
        return parse(d)
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from exc
    except (IndexError, OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _is_int(x: Any) -> bool:
    """True for Python and numpy integers, False for bools."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _is_real(x: Any) -> bool:
    """True for Python and numpy integers and finite floats, False for bools."""
    return _is_int(x) or (isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x))
