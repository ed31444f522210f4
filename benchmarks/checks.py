"""Output checks.  Each returns the list of problems found; empty means ok.

A point estimate is checked exactly: its ``v`` must be the k-th smallest
pair hash over the exact set of distinct join pairs, for the run's hash
draw, found here by numpy alone, and its value must be ``k / v``.  That
holds bit for bit on correct code, whatever the hash draw.

Where attribute values are scattered over 32 bits, the estimate must also
lie within ``6 / sqrt(k)`` of the exact size.  A k-minimum-values estimate
has relative standard deviation about ``1 / sqrt(k)``, so a correct sketch
leaves that band with negligible probability.  The band implies the bracket
``max_group_product <= z <= total_product`` widened by the same tolerance,
because the exact z lies in that bracket; so the bracket needs no check of
its own.  (Unwidened, it cannot be a check: on ``skewed-repeat`` z equals
the total product, so half of all correct estimates exceed it.)

In the fimi format a transaction's id is its line number, so the ids are
contiguous, and the multiply-add hash maps them to a lattice.  The error
tail of one run is then heavy: over 15,000 hash draws on one
``fimi-sketch`` input, the largest error was 8.6 / sqrt(k), and one in a
thousand exceeded 2.9 / sqrt(k).  No band of a few ``1 / sqrt(k)`` is missed with negligible
probability there, so fimi estimates are checked for the deterministic
bracket ``max_group_product <= value <= total_product`` only, besides the
exact check.
"""

from __future__ import annotations

import math

import numpy as np

POINT = "point"
FIMI = "fimi"

_SHIFT = np.uint64(32)
_LOW = np.uint64(0xFFFFFFFF)


def tolerance(k: int, fmt: str) -> float | None:
    """Relative band around z for a point estimate; None for fimi inputs."""
    return None if fmt == FIMI else 6.0 / math.sqrt(k)


def kth_smallest_pair_hash(pairs: np.ndarray, pair_hash, k: int) -> int | None:
    """k-th smallest ``h1(a) - h2(c) mod 2**64`` over ``pairs`` (each
    ``a << 32 | c``) for a ``wrapping64`` pair hash; None if fewer than k."""
    if pairs.size < k:
        return None
    h1, h2 = pair_hash.h1, pair_hash.h2
    hashes = ((pairs >> _SHIFT) * np.uint64(h1.multiplier) + np.uint64(h1.addend)
              - ((pairs & _LOW) * np.uint64(h2.multiplier) + np.uint64(h2.addend)))
    return int(np.partition(hashes, k - 1)[k - 1])


def check_grouping(grouped, facts) -> list[str]:
    problems = []
    for field, got in (
        ("groups", len(grouped)),
        ("n", grouped.tuple_count),
        ("max_group_product", grouped.max_group_product),
        ("total_product", grouped.total_product),
    ):
        want = getattr(facts, field)
        if got != want:
            problems.append(f"group_and_prune {field} = {got}, expected {want}")
    return problems


def check_estimate(kind: str, value: float, z: int, tol: float | None,
                   bracket: tuple[int, int] | None = None) -> list[str]:
    """Kind and accuracy: the band ``z * (1 +/- tol)`` if ``tol`` is given,
    else the bracket ``(lo, hi)`` if given."""
    problems = []
    if kind != POINT:
        problems.append(f"kind {kind!r}, expected {POINT!r}")
    if not math.isfinite(value):
        problems.append(f"estimate {value}")
    elif tol is not None and abs(value / z - 1.0) > tol:
        problems.append(f"estimate {value:.6g} outside {z} * (1 +/- {tol:.4f})")
    elif tol is None and bracket is not None and not bracket[0] <= value <= bracket[1]:
        problems.append(f"estimate {value:.6g} outside [{bracket[0]}, {bracket[1]}]")
    return problems


def check_sketch(v: int | None, value: float, v_exact: int | None, k: int) -> list[str]:
    """The estimate is ``k / v`` with ``v`` the exact k-th smallest pair hash."""
    if v is None or v != v_exact:
        return [f"v {v} is not the exact k-th smallest pair hash {v_exact}"]
    if value != (k << 64) / v:
        return [f"estimate {value!r} is not k / v = {(k << 64) / v!r}"]
    return []


def check_exact(z_reported: int, z: int) -> list[str]:
    return [] if z_reported == z else [f"exact_size returned {z_reported}, expected {z}"]


def check_kth_hash(v_sketch: int | None, v_oracle: int | None) -> list[str]:
    if v_sketch is None or v_sketch != v_oracle:
        return [f"sketch v {v_sketch} differs from oracle k-th hash {v_oracle}"]
    return []
