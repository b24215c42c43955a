"""Systematic Reed-Solomon codec over GF(2^m), batched over blocks.

Every codec call takes a (blocks, symbols) array. Encoding appends n-k
parity symbols, the remainder of division by the generator polynomial
prod_{i=0}^{n-k-1} (x - alpha^i). Parity and syndromes are both linear
maps of the input symbols, so each is one product with a fixed matrix,
applied to all blocks at once through the field's log/antilog tables;
the matrices are built per code on first use (`codec`), never at
import. Decoding is the classic bounded-distance chain and runs only on
blocks with a nonzero syndrome: Berlekamp-Massey for the error locator
(vectorized over blocks), Chien search for its roots and Forney for the
magnitudes (vectorized over blocks and positions).
Beyond t = floor((n-k)/2) symbol errors a block fails, with its reason
in `decode_blocks`' {block: reason} dict, or (rarely) decodes to a
valid-looking wrong word; callers needing certainty must verify a
digest, as the fuzzy commitment does.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ContractError
from .galois import PRIMITIVE_POLY, field


@dataclass(frozen=True)
class RsParams:
    """Code geometry: m-bit symbols, n total, k data, t correctable.

    m must be a field size `galois.PRIMITIVE_POLY` has a polynomial for.
    """

    m: int
    n: int
    k: int

    def __post_init__(self):
        if self.m not in PRIMITIVE_POLY:
            raise ContractError(
                f"need m = {min(PRIMITIVE_POLY)}..{max(PRIMITIVE_POLY)} bits per symbol "
                f"(the supported GF(2^m) sizes), got m={self.m}"
            )
        if not (1 <= self.k < self.n <= (1 << self.m) - 1):
            raise ContractError(
                f"require 1 <= k < n <= 2^m - 1, got (m={self.m}, n={self.n}, k={self.k})"
            )

    @property
    def t(self) -> int:
        return (self.n - self.k) // 2

    @property
    def block_bits(self) -> int:
        return self.n * self.m

    @property
    def parity_bits(self) -> int:
        return (self.n - self.k) * self.m


class ReedSolomon:
    """Encoder/decoder for a fixed RsParams instance.

    Position j of a codeword row carries the coefficient of x^(n-1-j);
    syndromes are evaluations at alpha^0 .. alpha^(n-k-1). Building an
    instance builds its tables; `codec(params)` shares one per code.
    """

    def __init__(self, params: RsParams):
        self.params = params
        gf = self.gf = field(params.m)
        n, k, nsym, q1 = params.n, params.k, params.n - params.k, gf.order - 1
        g = np.ones(1, dtype=np.int64)  # generator polynomial, highest degree first
        for i in range(nsym):
            g = np.concatenate([g, [0]]) ^ np.concatenate([[0], gf.mul_array(g, gf.exp[i])])
        # remainder of x^(n-1-i) mod g for each data position i: run the
        # division LFSR on the k unit words at once
        rem = np.zeros((k, nsym), dtype=np.int64)
        for i in range(k):
            factor = rem[:, 0].copy()
            factor[i] ^= 1
            rem = np.concatenate([rem[:, 1:], np.zeros((k, 1), dtype=np.int64)], axis=1)
            rem ^= gf.mul_array(factor[:, None], g[None, 1:])
        # the parity and syndrome matrices, as logs (a zero's is the sentinel)
        self._parity_log = gf.log[rem]
        degree = n - 1 - np.arange(n)
        self._syndrome_log = np.outer(degree, np.arange(nsym)) % q1
        # log of alpha^-degree per position, and (nsym, n) powers of it
        self._xinv_log = -degree % q1
        self._xinv_pow = gf.exp[np.outer(np.arange(nsym), self._xinv_log) % q1]

    def _apply(self, symbols: np.ndarray, coef_log: np.ndarray) -> np.ndarray:
        """symbols @ coef over GF(2^m) for every row, one output column at a time."""
        gf = self.gf
        log = gf.log[symbols]
        out = np.empty((len(symbols), coef_log.shape[1]), dtype=np.int64)
        for j in range(coef_log.shape[1]):
            out[:, j] = np.bitwise_xor.reduce(gf.exp[log + coef_log[:, j]], axis=1)
        return out

    def _check(self, symbols, length: int, name: str) -> np.ndarray:
        symbols = np.asarray(symbols, dtype=np.int64)
        if symbols.ndim != 2 or symbols.shape[1] != length:
            raise ContractError(f"{name} must have exactly {length} symbols")
        if symbols.size and (symbols.min() < 0 or symbols.max() >= self.gf.order):
            raise ContractError("symbol outside field range")
        return symbols

    def encode_blocks(self, words) -> np.ndarray:
        """(blocks, n) systematic codewords of (blocks, k) data words."""
        words = self._check(words, self.params.k, "word")
        return np.concatenate([words, self._apply(words, self._parity_log)], axis=1)

    def decode_blocks(self, received) -> tuple[np.ndarray, dict[int, str]]:
        """Corrected (blocks, n) codewords, and {block: reason} for failures.

        A failed block's row holds its received word unchanged.
        """
        received = self._check(received, self.params.n, "received")
        synd = self._apply(received, self._syndrome_log)  # all zero exactly for codewords
        out = received.copy()
        dirty = np.flatnonzero(synd.any(axis=1))
        if not dirty.size:
            return out, {}
        out[dirty], reasons = self._correct(received[dirty], synd[dirty])
        return out, {int(dirty[i]): reasons[i] for i in sorted(reasons)}

    def _berlekamp_massey(self, synd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Error locators (zero above their degree) and degrees L, per row.

        `shifted` holds x^gap * B(x), the last locator before a length
        change shifted by the steps since; coefficients past x^(n-k)
        drop off, as in the one-block recurrence.
        """
        gf = self.gf
        rows, nsym = synd.shape
        c = np.zeros((rows, nsym + 1), dtype=np.int64)
        c[:, 0] = 1
        shifted = np.roll(c, 1, axis=1)
        length = np.zeros(rows, dtype=np.int64)
        last_d = np.ones(rows, dtype=np.int64)
        for step in range(nsym):
            d = synd[:, step].copy()
            if step:
                terms = gf.mul_array(c[:, 1 : step + 1], synd[:, step - 1 :: -1])
                terms[np.arange(1, step + 1) > length[:, None]] = 0
                d ^= np.bitwise_xor.reduce(terms, axis=1)
            grow = (d != 0) & (2 * length <= step)
            prev = c.copy()
            c ^= gf.mul_array(gf.div_array(d, last_d)[:, None], shifted)
            length = np.where(grow, step + 1 - length, length)
            last_d = np.where(grow, d, last_d)
            shifted = np.where(grow[:, None], prev, shifted)
            shifted = np.concatenate([np.zeros((rows, 1), dtype=np.int64), shifted[:, :-1]], axis=1)
        c[np.arange(nsym + 1) > length[:, None]] = 0
        return c, length

    def _correct(self, received: np.ndarray, synd: np.ndarray) -> tuple[np.ndarray, dict[int, str]]:
        """Corrected rows of dirty blocks, and {row: reason} for the failed ones."""
        gf, p = self.gf, self.params
        q1 = gf.order - 1
        reasons = {}
        locator, length = self._berlekamp_massey(synd)
        for i in np.flatnonzero(length > p.t).tolist():
            reasons[i] = f"locator degree {length[i]} exceeds t={p.t}"
        live = np.flatnonzero(length <= p.t)
        loc = locator[live, : p.t + 1]
        # Chien search: position j holds degree n-1-j; an error there
        # means the locator vanishes at alpha^-(n-1-j)
        value = np.zeros((live.size, p.n), dtype=np.int64)
        for i in range(loc.shape[1]):
            value ^= gf.mul_array(loc[:, i, None], self._xinv_pow[i])
        roots = value == 0
        found = roots.sum(axis=1)
        keep = found == length[live]
        for i, count in zip(live[~keep].tolist(), found[~keep].tolist()):
            reasons[i] = f"locator of degree {length[i]} has {count} roots"
        live, loc, roots = live[keep], loc[keep], roots[keep]
        # Forney with fcr = 0: e = X * Omega(X^-1) / Lambda'(X^-1), with
        # Omega = Lambda * S mod x^(n-k)
        nsym = synd.shape[1]
        omega = np.zeros((live.size, nsym), dtype=np.int64)
        for j in range(loc.shape[1]):
            omega[:, j:] ^= gf.mul_array(loc[:, j, None], synd[live, : nsym - j])
        row, pos = np.nonzero(roots)
        num = np.zeros(row.size, dtype=np.int64)
        for i in range(nsym):
            num ^= gf.mul_array(omega[row, i], self._xinv_pow[i, pos])
        den = np.zeros(row.size, dtype=np.int64)
        for i in range(1, loc.shape[1], 2):
            den ^= gf.mul_array(loc[row, i], self._xinv_pow[i - 1, pos])
        vanished = np.zeros(live.size, dtype=bool)
        vanished[row[den == 0]] = True
        for i in live[vanished].tolist():
            reasons[i] = "Forney denominator vanished"
        ok = ~vanished[row]
        x_k = gf.exp[-self._xinv_log[pos[ok]] % q1]
        magnitude = gf.mul_array(x_k, gf.div_array(num[ok], den[ok]))
        corrected = received.copy()
        corrected[live[row[ok]], pos[ok]] ^= magnitude
        # syndromes are linear: those of the corrected word are the
        # received ones plus those of the error pattern
        after = synd.copy()
        error_synd = gf.mul_array(magnitude[:, None], gf.exp[self._syndrome_log[pos[ok]]])
        np.bitwise_xor.at(after, live[row[ok]], error_synd)
        done = live[~vanished]
        unclear = done[after[done].any(axis=1)]
        for i in unclear.tolist():
            reasons[i] = "correction did not clear the syndromes"
        corrected[unclear] = received[unclear]
        return corrected, reasons


@lru_cache(maxsize=8)
def codec(params: RsParams) -> ReedSolomon:
    """The shared codec of one code, built on first use."""
    return ReedSolomon(params)
