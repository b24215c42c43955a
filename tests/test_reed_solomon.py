import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import phykey
from phykey.errors import ContractError
from phykey.galois import field
from phykey.reed_solomon import ReedSolomon, RsParams, codec

RS15 = RsParams(m=4, n=15, k=11)


@dataclass(frozen=True)
class OracleFailure:
    """The scalar oracle gave up, with the reason the batched decoder must report."""

    reason: str


class ScalarReedSolomon:
    """Reference oracle: the one-block, per-symbol codec the batched one replaced.

    Encoding divides by the generator polynomial symbol by symbol;
    decoding runs syndromes, Berlekamp-Massey, Chien and Forney with
    scalar field operations.
    """

    def __init__(self, params: RsParams):
        self.params = params
        gf = self.gf = field(params.m)
        g = [1]
        for i in range(params.n - params.k):
            root = gf.pow(2, i)
            nxt = [0] * (len(g) + 1)
            for j, c in enumerate(g):
                nxt[j] ^= c
                nxt[j + 1] ^= gf.mul(c, root)
            g = nxt
        self.generator = g

    def encode(self, word) -> np.ndarray:
        gf, nsym = self.gf, self.params.n - self.params.k
        rem = [0] * nsym
        for sym in np.asarray(word).tolist():
            factor = sym ^ rem[0]
            rem = rem[1:] + [0]
            if factor:
                for j in range(nsym):
                    rem[j] ^= gf.mul(self.generator[j + 1], factor)
        return np.concatenate([np.asarray(word, dtype=np.int64), np.asarray(rem, dtype=np.int64)])

    def syndromes(self, received) -> list[int]:
        gf = self.gf
        out = []
        for i in range(self.params.n - self.params.k):
            root = gf.pow(2, i)
            acc = 0
            for sym in received:
                acc = gf.mul(acc, root) ^ int(sym)
            out.append(acc)
        return out

    def berlekamp_massey(self, synd: list[int]) -> list[int]:
        gf = self.gf
        nsym = len(synd)
        c = [1] + [0] * nsym
        b = [1] + [0] * nsym
        l, gap, last_d = 0, 1, 1
        for n in range(nsym):
            d = synd[n]
            for i in range(1, l + 1):
                d ^= gf.mul(c[i], synd[n - i])
            if d == 0:
                gap += 1
                continue
            coef = gf.div(d, last_d)
            prev = c[:]
            for i in range(nsym + 1 - gap):
                if b[i]:
                    c[i + gap] ^= gf.mul(coef, b[i])
            if 2 * l <= n:
                l = n + 1 - l
                b = prev
                last_d = d
                gap = 1
            else:
                gap += 1
        return c[: l + 1]

    def decode(self, received):
        p, gf = self.params, self.gf
        received = np.asarray(received, dtype=np.int64)
        synd = self.syndromes(received)
        if not any(synd):
            return received[: p.k].copy()
        locator = self.berlekamp_massey(synd)
        n_errors = len(locator) - 1
        if n_errors > p.t:
            return OracleFailure(f"locator degree {n_errors} exceeds t={p.t}")
        order = gf.order - 1
        positions, roots_x = [], []
        for j in range(p.n):
            deg = p.n - 1 - j
            xinv = int(gf.exp[(order - deg % order) % order])
            acc = 0
            for i, coef in enumerate(locator):
                acc ^= gf.mul(coef, gf.pow(xinv, i))
            if acc == 0:
                positions.append(j)
                roots_x.append(int(gf.exp[deg % order]))
        if len(positions) != n_errors:
            return OracleFailure(f"locator of degree {n_errors} has {len(positions)} roots")
        nsym = p.n - p.k
        omega = [0] * nsym
        for i in range(nsym):
            for j in range(min(i + 1, len(locator))):
                omega[i] ^= gf.mul(locator[j], synd[i - j])
        corrected = received.copy()
        for j, x_k in zip(positions, roots_x):
            xinv = gf.inv(x_k)
            num = 0
            for i, coef in enumerate(omega):
                num ^= gf.mul(coef, gf.pow(xinv, i))
            den = 0
            for i in range(1, len(locator), 2):
                den ^= gf.mul(locator[i], gf.pow(xinv, i - 1))
            if den == 0:
                return OracleFailure("Forney denominator vanished")
            corrected[j] ^= gf.mul(x_k, gf.div(num, den))
        if any(self.syndromes(corrected)):
            return OracleFailure("correction did not clear the syndromes")
        return corrected[: p.k].copy()


def test_params_validation():
    with pytest.raises(ContractError):
        RsParams(m=4, n=16, k=11)  # n > 2^m - 1
    with pytest.raises(ContractError):
        RsParams(m=4, n=15, k=15)
    assert RS15.t == 2
    assert RS15.block_bits == 60
    assert RS15.parity_bits == 16


def _corrupt(codewords, n_errors, params, rng):
    """Each row with n_errors[row] distinct positions XORed with nonzero magnitudes."""
    bad = codewords.copy()
    for row, count in enumerate(n_errors):
        pos = rng.choice(params.n, size=count, replace=False)
        bad[row, pos] ^= rng.integers(1, 1 << params.m, size=count)
    return bad


def test_zero_word_encodes_to_zero_codeword():
    zeros = np.zeros((1, 11), dtype=int)
    np.testing.assert_array_equal(codec(RS15).encode_blocks(zeros), np.zeros((1, 15)))


def test_encoding_is_systematic_and_roundtrips(rng):
    words = rng.integers(0, 16, size=(4, 11))
    cw = codec(RS15).encode_blocks(words)
    np.testing.assert_array_equal(cw[:, :11], words)
    decoded, failures = codec(RS15).decode_blocks(cw)
    assert failures == {}
    np.testing.assert_array_equal(decoded, cw)


def test_codeword_syndromes_vanish_at_generator_roots(rng):
    # independent oracle: evaluate the codeword polynomial at alpha^i
    gf = field(4)
    cw = codec(RS15).encode_blocks(rng.integers(0, 16, size=(1, 11)))[0]
    for i in range(15 - 11):
        root = gf.pow(2, i)
        acc = 0
        for sym in cw:  # cw[0] is the highest-degree coefficient
            acc = gf.mul(acc, root) ^ int(sym)
        assert acc == 0


def test_encode_linearity(rng):
    w1 = rng.integers(0, 16, size=11)
    w2 = rng.integers(0, 16, size=11)
    c1, c2, c12 = codec(RS15).encode_blocks(np.stack([w1, w2, w1 ^ w2]))
    np.testing.assert_array_equal(c12, c1 ^ c2)


def test_symbol_out_of_range_rejected():
    with pytest.raises(ContractError):
        codec(RS15).encode_blocks(np.array([[16] + [0] * 10]))
    with pytest.raises(ContractError):
        codec(RS15).decode_blocks(np.array([[16] + [0] * 14]))


@pytest.mark.parametrize("params", [RS15, RsParams(m=4, n=13, k=7), RsParams(m=6, n=63, k=45)])
def test_corrects_up_to_t_random_errors(params, rng):
    rs = ReedSolomon(params)
    cw = rs.encode_blocks(rng.integers(0, 1 << params.m, size=(200, params.k)))
    bad = _corrupt(cw, rng.integers(1, params.t + 1, size=200), params, rng)
    decoded, failures = rs.decode_blocks(bad)
    assert failures == {}
    np.testing.assert_array_equal(decoded, cw)


def test_exhaustive_two_symbol_flips_randomized(rng):
    # the reconciliation contract at desk scale: 1000 random <= t corruptions
    rs = ReedSolomon(RS15)
    cw = np.repeat(rs.encode_blocks(rng.integers(0, 16, size=(1, 11))), 1000, axis=0)
    decoded, failures = rs.decode_blocks(_corrupt(cw, [2] * 1000, RS15, rng))
    assert failures == {}
    np.testing.assert_array_equal(decoded, cw)


def test_beyond_radius_never_returns_original(rng):
    # t+1 distinct-symbol corruptions: decoder may fail or miscorrect to a
    # different word, but can never silently return the original
    rs = ReedSolomon(RS15)
    cw = rs.encode_blocks(rng.integers(0, 16, size=(500, 11)))
    decoded, failures = rs.decode_blocks(_corrupt(cw, [RS15.t + 1] * 500, RS15, rng))
    for row in range(500):
        if row not in failures:
            assert not np.array_equal(decoded[row], cw[row])


def test_exhaustive_all_error_patterns_small_code(rng):
    # RS(7,3) over GF(8), t=2: every single- and double-symbol error
    # pattern with every nonzero magnitude must decode back
    params = RsParams(m=3, n=7, k=3)
    rs = ReedSolomon(params)
    cw = rs.encode_blocks(rng.integers(0, 8, size=(1, 3)))[0]
    # singles[i, e - 1]: magnitude e at position i; doubles pair two positions
    singles = np.eye(7, dtype=np.int64)[:, None, :] * np.arange(1, 8)[None, :, None]
    doubles = [(singles[i][:, None] + singles[j][None, :]).reshape(-1, 7)
               for i in range(7) for j in range(i + 1, 7)]
    errors = np.concatenate([singles.reshape(-1, 7), *doubles])
    assert errors.shape == (7 * 7 + 21 * 7 * 7, 7)
    decoded, failures = rs.decode_blocks(cw ^ errors)
    assert failures == {}
    np.testing.assert_array_equal(decoded, np.broadcast_to(cw, decoded.shape))


def test_big_default_instance_roundtrip(rng):
    params = RsParams(m=8, n=255, k=223)
    rs = ReedSolomon(params)
    cw = rs.encode_blocks(rng.integers(0, 256, size=(1, 223)))
    decoded, failures = rs.decode_blocks(_corrupt(cw, [params.t], params, rng))
    assert failures == {}
    np.testing.assert_array_equal(decoded, cw)


ORACLE_CODES = {  # code: seeds checked (the scalar oracle is slow on the big code)
    RS15: 60,
    RsParams(m=4, n=13, k=7): 60,
    RsParams(m=6, n=63, k=45): 12,
    RsParams(m=8, n=255, k=223): 3,
}


@pytest.mark.parametrize("params", list(ORACLE_CODES), ids=lambda p: f"RS({p.n},{p.k})")
def test_batched_codec_matches_scalar_oracle(params):
    """Mixed batches of clean, correctable and beyond-radius blocks:
    codeword, success or failure (with its reason), and the
    returned word, miscorrections included, agree block by block."""
    oracle, rs = ScalarReedSolomon(params), ReedSolomon(params)
    outcomes = {}
    for seed in range(ORACLE_CODES[params]):
        rng = np.random.default_rng([params.n, params.k, seed])
        words = rng.integers(0, 1 << params.m, size=(16, params.k))
        codewords = rs.encode_blocks(words)
        received = codewords.copy()
        for row, n_err in enumerate(rng.integers(0, params.t + 4, size=16)):
            pos = rng.choice(params.n, size=n_err, replace=False)
            received[row, pos] ^= rng.integers(1, 1 << params.m, size=n_err)
        decoded, failures = rs.decode_blocks(received)
        for row in range(16):
            np.testing.assert_array_equal(codewords[row], oracle.encode(words[row]))
            want = oracle.decode(received[row])
            if isinstance(want, OracleFailure):
                assert failures.get(row) == want.reason
                np.testing.assert_array_equal(decoded[row], received[row])
                outcome = " ".join(want.reason.split()[:2])
            else:
                assert row not in failures
                np.testing.assert_array_equal(decoded[row], oracle.encode(want))
                outcome = "clean" if np.array_equal(received[row], codewords[row]) else (
                    "corrected" if np.array_equal(want, words[row]) else "miscorrected")
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
    assert {"clean", "corrected", "locator of"} <= set(outcomes), outcomes
    if params.m == 4:
        assert {"locator degree", "miscorrected"} <= set(outcomes), outcomes


def test_importing_the_cli_builds_no_codec_tables():
    """Set-up stays cheap: field and codec tables are built on first use."""
    code = (
        "import phykey.cli, phykey.pipeline\n"
        "from phykey import galois, reed_solomon\n"
        "assert galois.field.cache_info().currsize == 0\n"
        "assert reed_solomon.codec.cache_info().currsize == 0\n"
    )
    # the child imports the phykey this process imported, also when pytest's
    # `pythonpath` setting put it on sys.path and PYTHONPATH is unset
    src = str(Path(phykey.__file__).resolve().parents[1])
    paths = (src, os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=env)
    assert done.returncode == 0, done.stderr
