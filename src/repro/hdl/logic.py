"""Four-state logic vectors with Verilog operator semantics.

This module implements the value model of the Verilog simulator: fixed-width
bit vectors whose bits are ``0``, ``1`` or ``x`` (unknown).  High-impedance
``z`` is folded into ``x`` on read, which is sufficient for the synthesisable
subset used by the CorrectBench benchmark circuits (no tristate buses).

The representation keeps two integers per vector:

``val``
    the defined bit values; bits that are unknown are canonically ``0`` here.
``xmask``
    a mask whose set bits mark unknown (``x``) positions.

All operators follow IEEE 1364 semantics, including pessimistic
X-propagation: arithmetic and relational operators with any unknown input
produce fully-unknown results, while the bitwise operators use per-bit rules
(for instance ``0 & x == 0`` but ``1 & x == x``).
"""

from __future__ import annotations

from typing import Iterable


class LogicError(ValueError):
    """Raised for malformed logic-vector constructions."""


def _mask(width: int) -> int:
    return (1 << width) - 1


class Logic:
    """A fixed-width four-state logic vector.

    Instances are treated as immutable; all operators return new vectors.
    """

    __slots__ = ("width", "val", "xmask")

    def __init__(self, width: int, val: int = 0, xmask: int = 0):
        if width < 1:
            raise LogicError(f"logic width must be >= 1, got {width}")
        m = _mask(width)
        xmask &= m
        self.width = width
        self.xmask = xmask
        # Canonical form: value bits under the x mask are zero.
        self.val = (val & m) & ~xmask

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_int(cls, value: int, width: int) -> "Logic":
        """Build a fully-defined vector from a Python integer (wraps)."""
        return cls(width, value & _mask(width), 0)

    @classmethod
    def unknown(cls, width: int) -> "Logic":
        """A vector whose bits are all ``x``."""
        return cls(width, 0, _mask(width))

    @classmethod
    def zeros(cls, width: int) -> "Logic":
        return cls(width, 0, 0)

    @classmethod
    def ones(cls, width: int) -> "Logic":
        return cls(width, _mask(width), 0)

    @classmethod
    def from_bits(cls, bits: str) -> "Logic":
        """Build from a bit string, MSB first, e.g. ``"10x1"``."""
        bits = bits.strip().replace("_", "")
        if not bits:
            raise LogicError("empty bit string")
        val = 0
        xmask = 0
        for ch in bits:
            val <<= 1
            xmask <<= 1
            if ch == "1":
                val |= 1
            elif ch == "0":
                pass
            elif ch in "xXzZ":
                xmask |= 1
            else:
                raise LogicError(f"invalid bit character {ch!r}")
        return cls(len(bits), val, xmask)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def is_defined(self) -> bool:
        """True when no bit is unknown."""
        return self.xmask == 0

    @property
    def has_unknown(self) -> bool:
        return self.xmask != 0

    def to_uint(self) -> int | None:
        """Unsigned integer value, or ``None`` when any bit is unknown."""
        return self.val if self.xmask == 0 else None

    def to_int(self, signed: bool = False) -> int | None:
        """Integer value (optionally two's complement), or ``None`` if x."""
        if self.xmask != 0:
            return None
        if signed and self.val & (1 << (self.width - 1)):
            return self.val - (1 << self.width)
        return self.val

    def bit(self, index: int) -> "Logic":
        """Single-bit select; out-of-range indices read as ``x``."""
        if index < 0 or index >= self.width:
            return Logic.unknown(1)
        return Logic(1, (self.val >> index) & 1, (self.xmask >> index) & 1)

    def bits(self) -> str:
        """Bit string, MSB first, using ``0``, ``1`` and ``x``."""
        out = []
        for i in range(self.width - 1, -1, -1):
            if (self.xmask >> i) & 1:
                out.append("x")
            else:
                out.append("1" if (self.val >> i) & 1 else "0")
        return "".join(out)

    # ------------------------------------------------------------------
    # Width adjustment
    # ------------------------------------------------------------------
    def resize(self, width: int, signed: bool = False) -> "Logic":
        """Zero/sign extend or truncate to ``width`` bits.

        Sign extension replicates the MSB, including an unknown MSB.
        """
        if width == self.width:
            return self
        if width < self.width:
            return Logic(width, self.val, self.xmask)
        ext = width - self.width
        if not signed:
            return Logic(width, self.val, self.xmask)
        msb_i = self.width - 1
        fill = _mask(ext) << self.width
        if (self.xmask >> msb_i) & 1:
            return Logic(width, self.val, self.xmask | fill)
        if (self.val >> msb_i) & 1:
            return Logic(width, self.val | fill, self.xmask)
        return Logic(width, self.val, self.xmask)

    # ------------------------------------------------------------------
    # Truthiness (Verilog condition semantics)
    # ------------------------------------------------------------------
    def truth(self) -> bool | None:
        """Verilog truthiness: True if any bit is known 1, False if all
        bits are known 0, ``None`` (= x) otherwise."""
        if self.val & ~self.xmask:
            return True
        if self.xmask == 0:
            return False
        return None

    # ------------------------------------------------------------------
    # Bitwise operators (per-bit X rules)
    # ------------------------------------------------------------------
    def _binary_widths(self, other: "Logic") -> int:
        return max(self.width, other.width)

    def band(self, other: "Logic") -> "Logic":
        w = self._binary_widths(other)
        a, b = self.resize(w), other.resize(w)
        known0 = (~a.val & ~a.xmask) | (~b.val & ~b.xmask)
        x = (a.xmask | b.xmask) & ~known0
        return Logic(w, a.val & b.val, x)

    def bor(self, other: "Logic") -> "Logic":
        w = self._binary_widths(other)
        a, b = self.resize(w), other.resize(w)
        known1 = (a.val & ~a.xmask) | (b.val & ~b.xmask)
        x = (a.xmask | b.xmask) & ~known1
        return Logic(w, a.val | b.val, x)

    def bxor(self, other: "Logic") -> "Logic":
        w = self._binary_widths(other)
        a, b = self.resize(w), other.resize(w)
        x = a.xmask | b.xmask
        return Logic(w, a.val ^ b.val, x)

    def bxnor(self, other: "Logic") -> "Logic":
        return self.bxor(other).bnot()

    def bnot(self) -> "Logic":
        return Logic(self.width, ~self.val, self.xmask)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def reduce_and(self) -> "Logic":
        known0 = ~self.val & ~self.xmask & _mask(self.width)
        if known0:
            return Logic(1, 0, 0)
        if self.xmask:
            return Logic.unknown(1)
        return Logic(1, 1, 0)

    def reduce_or(self) -> "Logic":
        if self.val & ~self.xmask:
            return Logic(1, 1, 0)
        if self.xmask:
            return Logic.unknown(1)
        return Logic(1, 0, 0)

    def reduce_xor(self) -> "Logic":
        if self.xmask:
            return Logic.unknown(1)
        return Logic(1, bin(self.val).count("1") & 1, 0)

    def reduce_nand(self) -> "Logic":
        return self.reduce_and().bnot()

    def reduce_nor(self) -> "Logic":
        return self.reduce_or().bnot()

    def reduce_xnor(self) -> "Logic":
        return self.reduce_xor().bnot()

    # ------------------------------------------------------------------
    # Logical operators
    # ------------------------------------------------------------------
    def lnot(self) -> "Logic":
        t = self.truth()
        if t is None:
            return Logic.unknown(1)
        return Logic(1, 0 if t else 1, 0)

    def land(self, other: "Logic") -> "Logic":
        a, b = self.truth(), other.truth()
        if a is False or b is False:
            return Logic(1, 0, 0)
        if a is None or b is None:
            return Logic.unknown(1)
        return Logic(1, 1, 0)

    def lor(self, other: "Logic") -> "Logic":
        a, b = self.truth(), other.truth()
        if a is True or b is True:
            return Logic(1, 1, 0)
        if a is None or b is None:
            return Logic.unknown(1)
        return Logic(1, 0, 0)

    # ------------------------------------------------------------------
    # Equality / relational
    # ------------------------------------------------------------------
    def eq(self, other: "Logic") -> "Logic":
        w = self._binary_widths(other)
        a, b = self.resize(w), other.resize(w)
        if a.xmask or b.xmask:
            return Logic.unknown(1)
        return Logic(1, 1 if a.val == b.val else 0, 0)

    def neq(self, other: "Logic") -> "Logic":
        return self.eq(other).bnot()

    def case_eq(self, other: "Logic") -> "Logic":
        """``===``: x bits compare literally."""
        w = self._binary_widths(other)
        a, b = self.resize(w), other.resize(w)
        same = a.val == b.val and a.xmask == b.xmask
        return Logic(1, 1 if same else 0, 0)

    def case_neq(self, other: "Logic") -> "Logic":
        return self.case_eq(other).bnot()

    def _cmp(self, other: "Logic", signed: bool) -> tuple[int, int] | None:
        w = self._binary_widths(other)
        a, b = self.resize(w, signed), other.resize(w, signed)
        if a.xmask or b.xmask:
            return None
        av = a.to_int(signed)
        bv = b.to_int(signed)
        assert av is not None and bv is not None
        return av, bv

    def lt(self, other: "Logic", signed: bool = False) -> "Logic":
        pair = self._cmp(other, signed)
        if pair is None:
            return Logic.unknown(1)
        return Logic(1, 1 if pair[0] < pair[1] else 0, 0)

    def le(self, other: "Logic", signed: bool = False) -> "Logic":
        pair = self._cmp(other, signed)
        if pair is None:
            return Logic.unknown(1)
        return Logic(1, 1 if pair[0] <= pair[1] else 0, 0)

    def gt(self, other: "Logic", signed: bool = False) -> "Logic":
        return other.lt(self, signed)

    def ge(self, other: "Logic", signed: bool = False) -> "Logic":
        return other.le(self, signed)

    # ------------------------------------------------------------------
    # Arithmetic (pessimistic X semantics)
    # ------------------------------------------------------------------
    def add(self, other: "Logic", width: int | None = None) -> "Logic":
        w = width if width is not None else self._binary_widths(other)
        if self.xmask or other.xmask:
            return Logic.unknown(w)
        return Logic.from_int(self.val + other.val, w)

    def sub(self, other: "Logic", width: int | None = None) -> "Logic":
        w = width if width is not None else self._binary_widths(other)
        if self.xmask or other.xmask:
            return Logic.unknown(w)
        return Logic.from_int(self.val - other.val, w)

    def mul(self, other: "Logic", width: int | None = None) -> "Logic":
        w = width if width is not None else self._binary_widths(other)
        if self.xmask or other.xmask:
            return Logic.unknown(w)
        return Logic.from_int(self.val * other.val, w)

    def div(self, other: "Logic", width: int | None = None,
            signed: bool = False) -> "Logic":
        w = width if width is not None else self._binary_widths(other)
        if self.xmask or other.xmask:
            return Logic.unknown(w)
        a = self.resize(w, signed).to_int(signed)
        b = other.resize(w, signed).to_int(signed)
        assert a is not None and b is not None
        if b == 0:
            return Logic.unknown(w)
        q = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            q = -q
        return Logic.from_int(q, w)

    def mod(self, other: "Logic", width: int | None = None,
            signed: bool = False) -> "Logic":
        w = width if width is not None else self._binary_widths(other)
        if self.xmask or other.xmask:
            return Logic.unknown(w)
        a = self.resize(w, signed).to_int(signed)
        b = other.resize(w, signed).to_int(signed)
        assert a is not None and b is not None
        if b == 0:
            return Logic.unknown(w)
        r = abs(a) % abs(b)
        if a < 0:
            r = -r
        return Logic.from_int(r, w)

    def neg(self, width: int | None = None) -> "Logic":
        w = width if width is not None else self.width
        if self.xmask:
            return Logic.unknown(w)
        return Logic.from_int(-self.val, w)

    def pow(self, other: "Logic", width: int | None = None) -> "Logic":
        w = width if width is not None else self._binary_widths(other)
        if self.xmask or other.xmask:
            return Logic.unknown(w)
        return Logic.from_int(pow(self.val, other.val, 1 << w), w)

    # ------------------------------------------------------------------
    # Shifts
    # ------------------------------------------------------------------
    def shl(self, amount: "Logic", width: int | None = None) -> "Logic":
        w = width if width is not None else self.width
        if amount.xmask:
            return Logic.unknown(w)
        n = amount.val
        if n >= w:
            return Logic.zeros(w)
        return Logic(w, self.val << n, self.xmask << n)

    def shr(self, amount: "Logic", width: int | None = None) -> "Logic":
        w = width if width is not None else self.width
        if amount.xmask:
            return Logic.unknown(w)
        n = amount.val
        if n >= self.width:
            return Logic.zeros(w)
        return Logic(w, self.val >> n, self.xmask >> n)

    def ashr(self, amount: "Logic", width: int | None = None) -> "Logic":
        w = width if width is not None else self.width
        if amount.xmask:
            return Logic.unknown(w)
        n = min(amount.val, self.width)
        msb_i = self.width - 1
        msb_x = (self.xmask >> msb_i) & 1
        msb_v = (self.val >> msb_i) & 1
        fill = _mask(n) << (self.width - n) if n else 0
        val = self.val >> n
        xm = self.xmask >> n
        if msb_x:
            xm |= fill
        elif msb_v:
            val |= fill
        return Logic(w, val, xm)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @staticmethod
    def concat(parts: Iterable["Logic"]) -> "Logic":
        """Concatenate, first part becomes the most-significant bits."""
        parts = list(parts)
        if not parts:
            raise LogicError("empty concatenation")
        val = 0
        xmask = 0
        width = 0
        for p in parts:
            val = (val << p.width) | p.val
            xmask = (xmask << p.width) | p.xmask
            width += p.width
        return Logic(width, val, xmask)

    def replicate(self, count: int) -> "Logic":
        if count < 1:
            raise LogicError(f"replication count must be >= 1, got {count}")
        return Logic.concat([self] * count)

    def part(self, msb: int, lsb: int) -> "Logic":
        """Constant part select ``[msb:lsb]``; out-of-range bits read x."""
        if msb < lsb:
            raise LogicError(f"part select [{msb}:{lsb}] reversed")
        width = msb - lsb + 1
        if lsb >= self.width or msb < 0:
            return Logic.unknown(width)
        val = self.val >> max(lsb, 0)
        xm = self.xmask >> max(lsb, 0)
        out = Logic(width, val, xm)
        if msb >= self.width:
            # Bits above the declared width read as x.
            hi = msb - self.width + 1
            fill = _mask(hi) << (width - hi)
            out = Logic(width, out.val, out.xmask | fill)
        return out

    def set_part(self, msb: int, lsb: int, value: "Logic") -> "Logic":
        """Return a copy with ``[msb:lsb]`` replaced by ``value``."""
        if msb < lsb:
            raise LogicError(f"part select [{msb}:{lsb}] reversed")
        width = msb - lsb + 1
        v = value.resize(width)
        keep = ~(_mask(width) << lsb) & _mask(self.width)
        val = (self.val & keep) | ((v.val << lsb) & ~keep)
        xm = (self.xmask & keep) | ((v.xmask << lsb) & ~keep)
        return Logic(self.width, val, xm)

    # ------------------------------------------------------------------
    # Formatting (matches the $display conventions used by the drivers)
    # ------------------------------------------------------------------
    def format_decimal(self, signed: bool = False) -> str:
        if self.xmask:
            return "x"
        v = self.to_int(signed)
        assert v is not None
        return str(v)

    def format_binary(self) -> str:
        return self.bits()

    def format_hex(self) -> str:
        if self.xmask == 0:
            digits = (self.width + 3) // 4
            return format(self.val, f"0{digits}x")
        out = []
        for nib_i in range((self.width + 3) // 4 - 1, -1, -1):
            nib_x = (self.xmask >> (nib_i * 4)) & 0xF
            nib_v = (self.val >> (nib_i * 4)) & 0xF
            out.append("x" if nib_x else format(nib_v, "x"))
        return "".join(out)

    # ------------------------------------------------------------------
    # Python protocol
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Logic):
            return NotImplemented
        return (self.width == other.width and self.val == other.val
                and self.xmask == other.xmask)

    def __hash__(self) -> int:
        return hash((self.width, self.val, self.xmask))

    def __repr__(self) -> str:
        return f"Logic({self.width}'b{self.bits()})"


def logic_equal_defined(a: Logic, b: Logic) -> bool:
    """True when both vectors are fully defined and equal as unsigned ints.

    This is the comparison the Python checkers use on dump values.
    """
    return a.xmask == 0 and b.xmask == 0 and a.resize(
        max(a.width, b.width)).val == b.resize(max(a.width, b.width)).val
