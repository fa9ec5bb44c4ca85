"""Table 4 (Appendix C): isolating FlashQ vs SAS accuracy impact.

Four configurations on the AQuA-matched task with the LLaMA3-like model:

* FP16 — exact baseline.
* FlashQ-4bit — quantized cache + integer MatMuls, exact FP32 softmax.
* SAS — FP16 MatMuls over the 8-bit progressive cache, approximate softmax.
* FlashQ-4bit + SAS — full TurboAttention.

The paper finds both components individually near-lossless with the
combination slightly additive.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List

from repro.baselines.fp16_cache import FP16Attention
from repro.core import TurboAttention, TurboConfig
from repro.harness.common import render_table
from repro.models.config import MODEL_PRESETS
from repro.tasks import TASK_PRESETS
from repro.tasks.recall import evaluate_backend

__all__ = ["Table4Row", "run", "main"]


@dataclass
class Table4Row:
    method: str
    accuracy: float


def run(quick: bool = False) -> List[Table4Row]:
    model = MODEL_PRESETS["llama3ish"]
    task = TASK_PRESETS["aqua_like"]
    if quick:
        task = replace(task, prefill_len=256, n_hops=32)
    variants = {
        "fp16": FP16Attention,
        "flashq_4bit": lambda: TurboAttention(TurboConfig(kv_bits=4, use_sas=False)),
        "sas": lambda: TurboAttention(
            TurboConfig(use_sas=True, quantize_matmuls=False, kv_bits=8)
        ),
        "flashq_4bit+sas": lambda: TurboAttention(TurboConfig(kv_bits=4, use_sas=True)),
    }
    return [
        Table4Row(method=name, accuracy=evaluate_backend(f, task, model).accuracy)
        for name, f in variants.items()
    ]


def main(quick: bool = False) -> str:
    rows = run(quick=quick)
    text = render_table(
        ["model", "dataset", "method", "accuracy %"],
        [["llama3ish", "aqua_like", r.method, f"{r.accuracy * 100:.2f}"] for r in rows],
        title="Table 4: FlashQ vs SAS accuracy isolation",
    )
    print(text)
    return text


if __name__ == "__main__":
    main()
