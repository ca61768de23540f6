"""Synthetic response matrices with planted locally dependent item blocks.

Outputs are reproducible across runs, platforms, and implementations: all
randomness comes from one splitmix64 stream with a fixed draw order. Draw k
(k = 0, 1, ...) is u_k = mix(seed + (k + 1) * gamma mod 2^64) / 2^64, so
each phase below is one contiguous range of k. Examinees e, items i and
blocks b count from 0.

duplicate_blocks, B blocks of sizes s_0 .. s_{B-1}, n items; block b's
draws start at o_b = m * (b + s_0 + ... + s_{b-1}):
  1. [o_b, o_b + m): the base column, examinee order, cell = 1 iff
     u < base_p of the block;
  2. [o_b + m * j, o_b + m * (j + 1)) for the block's j-th item
     (j = 1 .. s_b): the item copies the base column, examinee order,
     flipping each cell iff u < flip_noise. The flip uniform is always
     drawn, even when flip_noise = 0.
  All m * (B + n) draws.

logistic_latent, B blocks, n items:
  1. [0, 12m): ability theta_e of examinee e from draws 12e .. 12e + 11,
     an Irwin-Hall(12) - 6 draw (the 12 uniforms added in order, minus 6);
  2. [12m, 12m(1 + B)): latent u_{e,b} from the 12 draws at
     12m + 12(eB + b), examinee-major, block-minor, built the same way;
  3. [12m(1 + B), 12m(1 + B) + mn): response (e, i) from draw
     12m(1 + B) + en + i, correct iff
     u < 1/(1 + exp(-(theta_e + lambda * u_{e,block(i)} - b_i))).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .response import ResponseMatrix

DUPLICATE_BLOCKS = "duplicate_blocks"
LOGISTIC_LATENT = "logistic_latent"
MODELS = (DUPLICATE_BLOCKS, LOGISTIC_LATENT)


def _uniforms(seed: int, count: int) -> np.ndarray:
    """Draws 0 .. count - 1 of the splitmix64 stream of ``seed``, as next()/2^64.

    Draw k is mix(seed + (k + 1) * gamma), so the whole range is one uint64
    expression, whose arithmetic wraps modulo 2^64 as splitmix64's state does.
    """
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z += np.uint64(seed & (2**64 - 1))
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> np.uint64(shift)
        z *= np.uint64(factor)
    z ^= z >> np.uint64(31)
    return z / 2.0**64


def _normals(u: np.ndarray) -> np.ndarray:
    """Irwin-Hall(12) - 6 per run of 12 uniforms, approximately N(0, 1).

    The 12 columns are added one at a time in draw order, as a scalar loop
    adds them, so the float sums keep their bits (``np.sum`` adds pairwise).
    """
    columns = u.reshape(-1, 12).T
    total = np.zeros(columns.shape[1])
    for column in columns:
        total += column
    return total - 6.0


@dataclass(frozen=True)
class SimConfig:
    """Generative description of a planted-dependence response matrix."""

    m: int
    block_sizes: tuple[int, ...]
    model: str = DUPLICATE_BLOCKS
    flip_noise: float = 0.0
    base_p: tuple[float, ...] = (0.5,)
    difficulties: tuple[float, ...] | None = None
    dependence: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        block_sizes = tuple(int(s) for s in self.block_sizes)
        if not block_sizes or any(s < 1 for s in block_sizes):
            raise ValueError("block_sizes must be non-empty positive integers")
        n = sum(block_sizes)
        if self.m < 2 or n < 2:
            raise ValueError("need m >= 2 examinees and n >= 2 items")
        if self.model not in MODELS:
            raise ValueError(f"unknown model: {self.model!r}")
        base_p = self.base_p
        if isinstance(base_p, (int, float)):
            base_p = (base_p,)
        base_p = tuple(float(p) for p in base_p)
        if len(base_p) == 1:
            base_p *= len(block_sizes)
        if len(base_p) != len(block_sizes):
            raise ValueError("base_p must have one value per block (or a single value)")
        if any(not 0.0 < p < 1.0 for p in base_p):
            raise ValueError("base_p values must lie in (0, 1)")
        if not 0.0 <= self.flip_noise <= 0.5:
            raise ValueError("flip_noise must lie in [0, 0.5]")
        if not 0.0 <= self.dependence < math.inf:
            raise ValueError("dependence strength must be finite and >= 0")
        difficulties = self.difficulties
        if difficulties is None:
            difficulties = (0.0,) * n
        else:
            difficulties = tuple(float(b) for b in difficulties)
            if len(difficulties) != n:
                raise ValueError(f"need {n} item difficulties, got {len(difficulties)}")
            if not all(map(math.isfinite, difficulties)):
                raise ValueError("item difficulties must be finite")
        object.__setattr__(self, "block_sizes", block_sizes)
        object.__setattr__(self, "base_p", base_p)
        object.__setattr__(self, "difficulties", difficulties)

    @property
    def n(self) -> int:
        return sum(self.block_sizes)


@dataclass(frozen=True)
class PlantedTruth:
    """Ground-truth block id per item, block-major item order."""

    block_of: tuple[int, ...]

    @property
    def block_count(self) -> int:
        return max(self.block_of) + 1 if self.block_of else 0


def simulate_matrix(config: SimConfig) -> tuple[ResponseMatrix, PlantedTruth]:
    """Generate a response matrix and its planted block map, deterministically."""
    m, n = config.m, config.n
    sizes = np.asarray(config.block_sizes)
    blocks = len(sizes)
    block_of = np.repeat(np.arange(blocks), sizes)

    if config.model == DUPLICATE_BLOCKS:
        # one row of m draws per base column or item, block by block
        draws = _uniforms(config.seed, m * (blocks + n)).reshape(blocks + n, m)
        base_rows = np.cumsum(sizes + 1) - sizes - 1  # o_b / m
        base = draws[base_rows] < np.asarray(config.base_p)[:, None]
        flips = np.delete(draws, base_rows, axis=0) < config.flip_noise
        cells = (base[block_of] ^ flips).T
    else:
        draws = _uniforms(config.seed, 12 * m * (1 + blocks) + m * n)
        theta = _normals(draws[: 12 * m])
        latents = _normals(draws[12 * m : 12 * m * (1 + blocks)]).reshape(m, blocks)
        with np.errstate(over="ignore"):  # inf, as Python floats overflow silently
            z = (
                theta[:, None]
                + config.dependence * latents[:, block_of]
                - np.asarray(config.difficulties)
            )
        # p = 1/(1 + e^-z) for z >= 0, else e^z/(1 + e^z), with e^-|z| from
        # math.exp: np.exp differs from it by an ulp on about 5% of inputs
        ez = np.fromiter(map(math.exp, (-np.abs(z)).flat), float, m * n).reshape(m, n)
        p = np.where(z >= 0, 1.0, ez) / (1.0 + ez)
        cells = draws[12 * m * (1 + blocks) :].reshape(m, n) < p

    cells = np.ascontiguousarray(cells, dtype=np.uint8)
    cells.setflags(write=False)  # handed over, not copied
    matrix = ResponseMatrix(
        examinee_ids=tuple(f"e{e + 1}" for e in range(m)),
        item_ids=tuple(f"i{i + 1}" for i in range(n)),
        cells=cells,
    )
    return matrix, PlantedTruth(block_of=tuple(block_of.tolist()))
