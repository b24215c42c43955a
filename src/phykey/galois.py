"""GF(2^m) arithmetic via log/antilog tables.

Addition is XOR; multiplication and inversion go through discrete-log
tables built by walking powers of the generator alpha = x modulo a
fixed primitive polynomial per field size.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ContractError

# Primitive polynomials (binary representation, degree = m bit set).
PRIMITIVE_POLY = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
}


class GF2m:
    """The finite field GF(2^m), 2 <= m <= 12."""

    def __init__(self, m: int):
        if m not in PRIMITIVE_POLY:
            raise ContractError(f"unsupported field exponent m={m}")
        self.m = m
        self.order = 1 << m
        self.poly = PRIMITIVE_POLY[m]
        size = self.order - 1
        # log(0) is a sentinel whose sums all land in a zero tail of exp, so
        # array products need no zero test; scalar methods test for 0 first
        exp = np.zeros(4 * size + 1, dtype=np.int64)
        log = np.full(self.order, 2 * size, dtype=np.int64)
        x = 1
        for i in range(size):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & self.order:
                x ^= self.poly
        exp[size : 2 * size] = exp[:size]  # doubled so products skip the mod
        for table in (exp, log):
            table.setflags(write=False)
        self.exp, self.log = exp, log

    def check(self, a: int) -> int:
        if not 0 <= a < self.order:
            raise ContractError(f"symbol {a} outside GF(2^{self.m})")
        return a

    def mul(self, a: int, b: int) -> int:
        self.check(a), self.check(b)
        if a == 0 or b == 0:
            return 0
        return int(self.exp[self.log[a] + self.log[b]])

    def inv(self, a: int) -> int:
        self.check(a)
        if a == 0:
            raise ContractError("zero has no inverse")
        return int(self.exp[self.order - 1 - self.log[a]])

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, n: int) -> int:
        self.check(a)
        if a == 0:
            if n == 0:
                return 1
            if n < 0:
                raise ContractError("zero to a negative power")
            return 0
        return int(self.exp[(self.log[a] * n) % (self.order - 1)])

    def mul_array(self, a, b) -> np.ndarray:
        """Elementwise product of symbol arrays (unchecked, broadcasting)."""
        return self.exp[self.log[a] + self.log[b]]

    def div_array(self, a, b) -> np.ndarray:
        """Elementwise a / b of symbol arrays; b must be nonzero (unchecked)."""
        return self.exp[self.log[a] - self.log[b] + (self.order - 1)]


@lru_cache(maxsize=None)
def field(m: int) -> GF2m:
    return GF2m(m)
