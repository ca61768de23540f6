"""Synthetic response matrices with planted locally dependent item blocks.

Outputs are reproducible across runs, platforms, and implementations: all
randomness comes from one splitmix64 stream (uniforms u = next()/2^64) with
a fixed draw order.

duplicate_blocks stream layout, per block in order:
  1. m uniforms (examinee order) -> base column, cell = 1 iff u < base_p;
  2. for each item in the block, m uniforms (examinee order) -> the item
     copies the base column, flipping each cell iff u < flip_noise. The
     flip uniform is always drawn, even when flip_noise = 0.

logistic_latent stream layout:
  1. per-examinee abilities theta_e (examinee order), each an
     Irwin-Hall(12) - 6 draw (12 uniforms summed, minus 6);
  2. per-examinee-per-block latents u_{e,b} (examinee-major, block-minor),
     same 12-uniform construction;
  3. responses examinee-major, item-minor: one uniform each, correct iff
     u < 1/(1 + exp(-(theta_e + lambda * u_{e,block(i)} - b_i))).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .response import ResponseMatrix

_MASK64 = (1 << 64) - 1
_TWO64 = float(2**64)

DUPLICATE_BLOCKS = "duplicate_blocks"
LOGISTIC_LATENT = "logistic_latent"
MODELS = (DUPLICATE_BLOCKS, LOGISTIC_LATENT)


class SplitMix64:
    """splitmix64 generator; 64-bit state, public-domain constants."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_uniform(self) -> float:
        return self.next_u64() / _TWO64


def _std_normal_approx(rng: SplitMix64) -> float:
    """Irwin-Hall(12) - 6: sum of 12 uniforms minus 6, approximately N(0, 1)."""
    total = 0.0
    for _ in range(12):
        total += rng.next_uniform()
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
            base_p = (float(base_p),) * len(block_sizes)
        else:
            base_p = tuple(float(p) for p in base_p)
            if len(base_p) == 1:
                base_p = base_p * len(block_sizes)
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


def _block_map(block_sizes: tuple[int, ...]) -> tuple[int, ...]:
    out: list[int] = []
    for b, size in enumerate(block_sizes):
        out.extend([b] * size)
    return tuple(out)


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def simulate_matrix(config: SimConfig) -> tuple[ResponseMatrix, PlantedTruth]:
    """Generate a response matrix and its planted block map, deterministically."""
    rng = SplitMix64(config.seed)
    m, n = config.m, config.n
    block_of = _block_map(config.block_sizes)
    cells = np.zeros((m, n), dtype=np.int64)

    if config.model == DUPLICATE_BLOCKS:
        col = 0
        for b, size in enumerate(config.block_sizes):
            base = [1 if rng.next_uniform() < config.base_p[b] else 0 for _ in range(m)]
            for j in range(size):
                for e in range(m):
                    flip = rng.next_uniform() < config.flip_noise
                    cells[e, col + j] = base[e] ^ flip
            col += size
    else:
        theta = [_std_normal_approx(rng) for _ in range(m)]
        blocks = len(config.block_sizes)
        latents = [[_std_normal_approx(rng) for _ in range(blocks)] for _ in range(m)]
        lam = config.dependence
        for e in range(m):
            for i in range(n):
                z = theta[e] + lam * latents[e][block_of[i]] - config.difficulties[i]
                cells[e, i] = 1 if rng.next_uniform() < _sigmoid(z) else 0

    matrix = ResponseMatrix(
        examinee_ids=tuple(f"e{e + 1}" for e in range(m)),
        item_ids=tuple(f"i{i + 1}" for i in range(n)),
        cells=cells,
    )
    return matrix, PlantedTruth(block_of=block_of)
