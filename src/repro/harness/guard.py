"""Guard extension experiment: chaos persistence matrix + escalation vs bound.

TurboAttention's all-integer KV path has no FP16 residual to hide behind
(unlike KIVI/GEAR): a corrupted scale, a NaN'd tile, or a drifted decode
distribution is decoded straight into the attention output.  This harness
exercises the :mod:`repro.guard` subsystem end to end:

* **Chaos matrix** — every corruption kind from
  :mod:`repro.guard.chaos` (bit flip, scale zeroing, NaN poisoning,
  truncation) is injected into a serialized KV state and must be either
  *detected* with a typed :class:`~repro.guard.errors.CacheCorruptionError`
  or *salvaged* to a valid sequence prefix with the affected token range
  reported — zero silent-wrong-output cases.  The stealth variants
  (checksums re-stamped after corruption) show what the semantic
  validators catch on their own; a stealthy bit flip inside a code payload
  is valid-by-construction data, which is exactly the argument for
  computing checksums at write time.

* **Escalation vs bound** — two runs over an *identical* seeded decode
  stream whose values turn outlier-heavy mid-stream.  Without the guard,
  the frozen universal buffer scale clamps the outliers forever and the
  measured attention error blows past the analytic
  :func:`~repro.quant.bounds.attention_output_bound` built from the
  quantizer's own promises.  With the guard, clamp-hot heads escalate
  2 -> 4 -> 8 bits and regrow the frozen scale at flush boundaries, and
  the measured tail error stays inside the bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core import (
    TurboAttention,
    TurboConfig,
    TurboKVState,
    state_to_arrays,
    walk_state,
)
from repro.guard import (
    CORRUPTION_KINDS,
    ChaosInjector,
    EscalationConfig,
    GuardConfig,
)
from repro.harness.common import render_table
from repro.quant.bounds import attention_output_bound

__all__ = ["run", "main", "ChaosCell", "EscalationRun"]


# --------------------------------------------------------------------------
# Part 1: chaos persistence matrix
# --------------------------------------------------------------------------

@dataclass
class ChaosCell:
    kind: str
    stealth: bool
    target_key: str
    detected: Optional[str]       # typed error class name, or None
    salvage_kept: int
    salvage_ranges: List[Tuple[int, int]]
    salvage_total: int
    prefix_valid: bool

    @property
    def silent_wrong_output(self) -> bool:
        """True iff corruption slipped through *and* salvage misreported.

        A stealthy bit flip is valid-by-construction data (detected is
        None) but salvage still reports a consistent state, so the only
        dangerous cell is one where damage was visible yet the salvaged
        prefix does not line up with the reported recompute ranges.
        """
        return self.detected is not None and not self.prefix_valid


def _make_state(seed: int = 0) -> Tuple[TurboKVState, int]:
    rng = np.random.default_rng(seed)
    h, n, d = 4, 88, 32  # 2 full blocks + 24 staged buffer tokens
    q = rng.standard_normal((h, n, d))
    k = rng.standard_normal((h, n, d))
    v = rng.standard_normal((h, n, d))
    turbo = TurboAttention(TurboConfig(block_q=32, block_k=32, buffer_size=32))
    _, state = turbo.prefill(q, k, v)
    return state, n


def _chaos_matrix(seed: int = 7) -> List[ChaosCell]:
    state, total = _make_state()
    arrays = state_to_arrays(state)
    injector = ChaosInjector(seed=seed)
    cells: List[ChaosCell] = []
    for kind in CORRUPTION_KINDS:
        for stealth in (False, True):
            corrupted, event = injector.corrupt(arrays, kind, stealth=stealth)
            res, error = walk_state(corrupted)
            detected = type(error).__name__ if error is not None else None
            prefix_valid = (
                not res.recompute_ranges
                or (
                    res.recovered_tokens == res.recompute_ranges[0][0]
                    and res.recompute_ranges[-1][1] == total
                )
            )
            cells.append(ChaosCell(
                kind=kind,
                stealth=stealth,
                target_key=event.key,
                detected=detected,
                salvage_kept=res.recovered_tokens,
                salvage_ranges=res.recompute_ranges,
                salvage_total=total,
                prefix_valid=prefix_valid,
            ))
    return cells


# --------------------------------------------------------------------------
# Part 2: escalation vs the analytic attention bound
# --------------------------------------------------------------------------

@dataclass
class EscalationRun:
    name: str
    steps: int
    escalations: int
    regrows: int
    final_bits: List[int]
    #: Max measured |out - exact| over the tail window (escalation settled).
    tail_error: float
    #: The guard's quality contract: attention_output_bound built from the
    #: *guarded* state's reconstruction promises.  Both runs are held to
    #: the same contract.
    tail_bound: float

    @property
    def within_bound(self) -> bool:
        return self.tail_error <= self.tail_bound


def _value_promise(state: TurboKVState) -> float:
    """Worst-case value reconstruction error the quantizer *promises*:
    ``s/2`` for the symmetric INT8 buffer, ``s*(1/2 + s_int)`` for each
    progressive block (see :mod:`repro.quant.bounds`).  Clamping breaks
    this promise — which is what the experiment demonstrates."""
    worst = float(np.max(state.buffer.v_scale)) / 2.0
    for block in state.cache.blocks:
        worst = max(
            worst,
            float((block.v.float_scale * (0.5 + block.v.s_int)).max()),
        )
    return worst


def _score_promise(state: TurboKVState, q_t: np.ndarray, k_hist: np.ndarray,
                   attn_scale: float, mc: int) -> float:
    """Worst-case score perturbation if K storage honors its promise.

    ``|q_hat . k_hat - q . k| <= ||q_hat||_1 * kerr + qerr * ||k||_1`` per
    head, with ``kerr`` the per-head key reconstruction promise (INT8
    buffer: ``s/2``; progressive block: ``s * (1/2 + s_int)``) and ``qerr``
    the query's own INT8 rounding step.
    """
    h, d = q_t.shape
    kerr = state.buffer.k_scale.reshape(-1) / 2.0
    for block in state.cache.blocks:
        per_head = block.k.float_scale.reshape(-1) * (
            0.5 + block.k.s_int.reshape(h, -1).max(axis=-1)
        )
        kerr = np.maximum(kerr, per_head)
    q_absmax = np.maximum(np.abs(q_t).max(axis=-1), 1e-12)
    q_err = q_absmax / float(mc) / 2.0
    q_l1 = np.abs(q_t).sum(axis=-1) + d * q_err
    k_l1 = np.abs(k_hist).sum(axis=-1).max(axis=-1)
    delta = attn_scale * (q_l1 * kerr + q_err * (k_l1 + d * kerr))
    return float(delta.max())


def _exact_step(q_t: np.ndarray, k_hist: np.ndarray, v_hist: np.ndarray,
                attn_scale: float) -> np.ndarray:
    s = np.einsum("hd,hnd->hn", q_t, k_hist) * attn_scale
    m = s.max(axis=-1, keepdims=True)
    p = np.exp(s - m)
    p = p / p.sum(axis=-1, keepdims=True)
    return np.einsum("hn,hnd->hd", p, v_hist)


def _escalation_experiment(quick: bool = False) -> List[EscalationRun]:
    """Identical seeded decode stream, with and without the guard.

    The stream's values drift to a large positive mean mid-run (the
    systematic activation drift that hurts a frozen scale the most: the
    clamping error doesn't cancel across tokens).  The escalator's quality
    target is 8-bit, so every head escalates 4 -> 8 at its first flush and
    clamp-hot heads regrow the frozen scale when the drift arrives.

    Both runs are judged against the *same* quality contract: the
    analytic :func:`attention_output_bound` evaluated from the guarded
    state's reconstruction promises (its scales, its ``s_int``, its
    widths).  The guarded run's measured error honors the contract; the
    unguarded run — identical inputs — violates it, because frozen-scale
    clamping is precisely the failure mode the promises exclude.
    """
    h, d = 4, 16
    n0 = 16          # < block_k: every cache block is built by decode flushes
    steps = 96 if quick else 160
    outlier_from = 24
    drift_mean, drift_std = 40.0, 4.0
    config = TurboConfig(block_q=32, block_k=32, buffer_size=16, kv_bits=4)
    guard = GuardConfig(
        escalation=EscalationConfig(
            ladder=(2, 4, 8), quality_bits=8, patience=1, cooldown=8,
            clamp_threshold=0.02,
        )
    )
    attn_scale = 1.0 / np.sqrt(d)
    tail_from = steps - max(steps // 4, 8)
    mc = config.int8_max_code

    # Generate the shared stream once.
    stream = np.random.default_rng(456)
    prompt = np.random.default_rng(123).standard_normal((3, h, n0, d))
    tokens = []
    for t in range(steps):
        q_t = stream.standard_normal((h, d))
        k_t = stream.standard_normal((h, d))
        v_t = stream.standard_normal((h, d))
        if t >= outlier_from:
            v_t = drift_mean + drift_std * v_t
        tokens.append((q_t, k_t, v_t))

    # Guarded run first: its state defines the quality contract.
    results = {}
    contract_bound = np.inf
    for name, g in (("guarded", guard), ("no-guard", None)):
        turbo = TurboAttention(config, guard=g)
        _, state = turbo.prefill(prompt[0], prompt[1], prompt[2])
        k_hist, v_hist = [prompt[1]], [prompt[2]]
        tail_err = 0.0
        for t, (q_t, k_t, v_t) in enumerate(tokens):
            k_hist.append(k_t[:, None, :])
            v_hist.append(v_t[:, None, :])
            out = turbo.decode_step(q_t, k_t, v_t, state)
            if t < tail_from:
                continue
            k_all = np.concatenate(k_hist, axis=-2)
            v_all = np.concatenate(v_hist, axis=-2)
            exact = _exact_step(q_t, k_all, v_all, attn_scale)
            tail_err = max(tail_err, float(np.abs(out - exact).max()))
            if name == "guarded":
                bound = attention_output_bound(
                    _score_promise(state, q_t, k_all, attn_scale, mc),
                    _value_promise(state),
                    float(np.abs(v_all).max()),
                )
                contract_bound = min(contract_bound, bound)
        report = state.report
        results[name] = EscalationRun(
            name=name,
            steps=steps,
            escalations=report.escalations if report else 0,
            regrows=report.scale_regrows if report else 0,
            final_bits=[int(b) for b in state.cache.head_bits],
            tail_error=tail_err,
            tail_bound=np.nan,
        )
    for r in results.values():
        r.tail_bound = float(contract_bound)
    return [results["no-guard"], results["guarded"]]


# --------------------------------------------------------------------------
# Harness entry points
# --------------------------------------------------------------------------

def run(quick: bool = False):
    return _chaos_matrix(), _escalation_experiment(quick=quick)


def main(quick: bool = False) -> str:
    cells, runs = run(quick=quick)

    chaos_rows = [
        [
            c.kind,
            "stealth" if c.stealth else "stale-crc",
            c.target_key,
            c.detected or "(valid data)",
            f"{c.salvage_kept}/{c.salvage_total}",
            ", ".join(f"[{s}, {e})" for s, e in c.salvage_ranges) or "-",
            "OK" if c.prefix_valid else "BROKEN",
        ]
        for c in cells
    ]
    chaos_table = render_table(
        ["corruption", "mode", "key hit", "detected as", "kept tok",
         "recompute", "prefix"],
        chaos_rows,
        title="Chaos persistence matrix (seeded injector, serialized KV state)",
    )

    esc_rows = [
        [
            r.name,
            r.steps,
            r.escalations,
            r.regrows,
            "/".join(str(b) for b in r.final_bits),
            f"{r.tail_error:.3f}",
            f"{r.tail_bound:.3f}",
            "yes" if r.within_bound else "VIOLATED",
        ]
        for r in runs
    ]
    esc_table = render_table(
        ["run", "steps", "escalations", "scale regrows", "final bits",
         "tail err", "bound", "within"],
        esc_rows,
        title=("Escalation vs attention_output_bound (identical seeded decode "
               "stream, value distribution drifts to mean 40 mid-run)"),
    )

    stale = [c for c in cells if not c.stealth]
    stealthy = [c for c in cells if c.stealth]
    lookup = {r.name: r for r in runs}
    unguarded, guarded = lookup["no-guard"], lookup["guarded"]
    checks = [
        (
            "stale-CRC corruption (realistic storage fault): "
            f"{sum(1 for c in stale if c.detected)}/{len(stale)} kinds detected "
            "with typed errors"
        ),
        (
            "stealth corruption caught semantically: "
            + ", ".join(
                "{}={}".format(
                    c.kind,
                    "yes" if c.detected
                    else "no (valid data — why checksums are stamped at write time)",
                )
                for c in stealthy
            )
        ),
        (
            "salvage always returns a valid sequence prefix + exact recompute "
            f"ranges ({'OK' if all(c.prefix_valid for c in cells) else 'VIOLATED'})"
        ),
        (
            "silent wrong output cases: "
            f"{sum(1 for c in cells if c.silent_wrong_output)}"
        ),
        (
            f"no-guard run: tail error {unguarded.tail_error:.3f} vs bound "
            f"{unguarded.tail_bound:.3f} — "
            f"{'VIOLATES' if not unguarded.within_bound else 'within'} "
            f"({unguarded.tail_error / max(unguarded.tail_bound, 1e-12):.1f}x); "
            "frozen-scale clamping breaks the quantizer's promise"
        ),
        (
            f"guarded run: {guarded.escalations} escalations, "
            f"{guarded.regrows} scale regrows, final bits "
            f"{'/'.join(str(b) for b in guarded.final_bits)}; tail error "
            f"{guarded.tail_error:.3f} stays within bound {guarded.tail_bound:.3f} "
            f"({'OK' if guarded.within_bound else 'VIOLATED'})"
        ),
    ]
    text = (
        chaos_table + "\n\n" + esc_table
        + "\nChecks:\n" + "\n".join(f"  - {c}" for c in checks)
    )
    print(text)
    return text


if __name__ == "__main__":
    main()
