"""Integer-to-bitstring codes for d-level systems.

Four code families map a level index l in {0, ..., d-1} to a string of
qubit values:

* standard binary (SB):  R(l) = binary digits of l on ceil(log2 d) qubits;
* Gray:                  R(l) = l XOR (l >> 1), the reflected binary code,
  so consecutive levels always differ in exactly one bit;
* unary (one-hot):       R(l) sets exactly bit l among d qubits;
* block unary (BU):      ceil(d/g) blocks of ceil(log2(g+1)) qubits; level l
  occupies block floor(l/g), which holds the local code (SB or Gray) of the
  value (l mod g) + 1.  An all-zero block means "not this block", which is
  why local values start at 1.

All four share one geometry, given by :func:`block_shape`: g levels per
block, w qubits per block, a first local value and a local code.  SB and
Gray are one block of K = ceil(log2 d) qubits whose local value is l
itself, (d, K, 0, kind); unary is d one-qubit blocks each holding 1,
(1, 1, 1, SB); block unary is (min(g, d), ceil(log2(g+1)), 1, local code).
Level l sits in block floor(l/g) with local value (l mod g) + first, and
the code has ceil(d/g) * w qubits.

Bit order convention: index 0 is the least significant bit and the lowest
qubit index.  Printed strings are big-endian ("0101" reads x3 x2 x1 x0);
block-unary display inserts a space between blocks.

The bitmask subset C(l), the w qubits of level l's block, is the minimal
set of qubits whose values pin down level l: all qubits for a compact code,
{l} for unary.  An operator element |l><l'| only ever needs the qubits in
C(l) | C(l').
"""

from __future__ import annotations

from dataclasses import dataclass

SB = "sb"
GRAY = "gray"
UNARY = "unary"
BLOCK_UNARY = "block_unary"

_KINDS = (SB, GRAY, UNARY, BLOCK_UNARY)
_LOCAL_KINDS = (SB, GRAY)

BitString = tuple[int, ...]
MAX_D = 2**16


def check_level_count(d: int, name: str = "d") -> None:
    """The one level-count rule, checked before any d x d matrix is built."""
    if not 2 <= d <= MAX_D:
        raise ValueError(f"{name} must be in [2, {MAX_D}], got {d}")


class InvalidCodeword(ValueError):
    """A bitstring that is not in the image of the code."""


@dataclass(frozen=True)
class EncodingSpec:
    """Which code to use, plus the level count d.

    For block unary, ``local_kind`` picks the in-block code and ``g`` the
    block size (number of levels per block).  Both are ignored for the
    other kinds.
    """

    kind: str
    d: int
    local_kind: str = SB
    g: int = 3

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown encoding kind {self.kind!r}")
        check_level_count(self.d)
        if self.kind == BLOCK_UNARY:
            if self.local_kind not in _LOCAL_KINDS:
                raise ValueError(f"unknown local code {self.local_kind!r}")
            if self.g < 1:
                raise ValueError(f"block size g must be >= 1, got {self.g}")

    @property
    def block_width(self) -> int:
        """Qubits per block (block unary only): ceil(log2(g+1))."""
        return self.g.bit_length()

    def describe(self) -> str:
        if self.kind == BLOCK_UNARY:
            return f"bu[{self.local_kind},g={self.g}](d={self.d})"
        return f"{self.kind}(d={self.d})"


def ceil_log2(d: int) -> int:
    """ceil(log2 d) for d >= 1: the register width K of a compact code."""
    return (d - 1).bit_length()


def block_shape(spec: EncodingSpec) -> tuple[int, int, int, str]:
    """The code as block unary: levels per block (at most d), qubits per
    block, the local value of a block's first level, and the local code."""
    if spec.kind == BLOCK_UNARY:
        return min(spec.g, spec.d), spec.block_width, 1, spec.local_kind
    if spec.kind == UNARY:
        return 1, 1, 1, SB
    return spec.d, ceil_log2(spec.d), 0, spec.kind


def num_qubits(spec: EncodingSpec) -> int:
    """Qubit count N_q of the code: ceil(d/g) blocks of w qubits, which is
    ceil(log2 d) for SB/Gray, d for unary, ceil(d/g) * ceil(log2(g+1)) for
    block unary."""
    g, w, _, _ = block_shape(spec)
    return -(-spec.d // g) * w


def _int_to_bits(x: int, n: int) -> BitString:
    bits = [0] * n
    while x:  # one step per set bit, so a unary codeword costs O(n)
        low = x & -x
        bits[low.bit_length() - 1] = 1
        x ^= low
    return tuple(bits)


def _bits_to_int(bits: BitString) -> int:
    return sum(b << i for i, b in enumerate(bits))


def _gray(l: int) -> int:
    return l ^ (l >> 1)


def _gray_inverse(x: int) -> int:
    mask = x >> 1
    while mask:
        x ^= mask
        mask >>= 1
    return x


def codeword(spec: EncodingSpec, l: int) -> int:
    """Codeword R(l) as an integer: bit q is the value of qubit q."""
    if not 0 <= l < spec.d:
        raise ValueError(f"level {l} out of range [0, {spec.d})")
    # One occupied block, local value (l mod g) + first inside it.
    g, w, first, local_kind = block_shape(spec)
    block, local = divmod(l, g)
    local += first
    return (_gray(local) if local_kind == GRAY else local) << (block * w)


def encode(spec: EncodingSpec, l: int) -> BitString:
    """Codeword R(l), index 0 = least significant bit / lowest qubit."""
    return _int_to_bits(codeword(spec, l), num_qubits(spec))


def decode(spec: EncodingSpec, bits: BitString) -> int:
    """Inverse of :func:`codeword`: read the one candidate level l off the
    bits and accept it only if 0 <= l < d and codeword(spec, l) is exactly
    these bits; every other string raises InvalidCodeword."""
    n = num_qubits(spec)
    if len(bits) != n:
        raise ValueError(f"expected {n} bits, got {len(bits)}")
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bits must be 0 or 1")
    x = _bits_to_int(bits)
    # The highest occupied block (block 0 when no bit is set) and its local value.
    g, w, first, local_kind = block_shape(spec)
    block = max(x.bit_length() - 1, 0) // w
    local = x >> (block * w)
    l = block * g + (_gray_inverse(local) if local_kind == GRAY else local) - first
    if not (0 <= l < spec.d and codeword(spec, l) == x):
        raise InvalidCodeword(f"{format_bits(spec, bits)} is not a codeword of {spec.describe()}")
    return l


def bitmask_subset(spec: EncodingSpec, l: int) -> set[int]:
    """Qubits whose values determine level l: the w qubits of its block,
    which are everything for compact codes and {l} for unary."""
    if not 0 <= l < spec.d:
        raise ValueError(f"level {l} out of range [0, {spec.d})")
    g, w, _, _ = block_shape(spec)
    block = l // g
    return set(range(block * w, block * w + w))


def hamming_distance(a: BitString, b: BitString) -> int:
    """Number of positions where two equal-length bitstrings differ."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(x != y for x, y in zip(a, b))


def format_bits(spec: EncodingSpec, bits: BitString) -> str:
    """Big-endian display; block unary gets a space between blocks."""
    s = "".join(str(b) for b in reversed(bits))
    if spec.kind != BLOCK_UNARY:
        return s
    w = spec.block_width
    groups = [s[i : i + w] for i in range(0, len(s), w)]
    return " ".join(groups)


def parse_bits(text: str) -> BitString:
    """Parse a big-endian display string (spaces ignored) back to bits."""
    clean = text.replace(" ", "")
    if not clean or any(c not in "01" for c in clean):
        raise ValueError(f"not a bitstring: {text!r}")
    return tuple(int(c) for c in reversed(clean))
