"""GPU device specification and the roofline latency rule.

Rates are peak numbers from NVIDIA's A100 datasheet (SXM 80GB):

* FP16 tensor core: 312 TFLOPS        * INT8 tensor core: 624 TOPS
* FP32 CUDA core:   19.5 TFLOPS       * FP16 CUDA core:   78  TFLOPS
* HBM2e bandwidth:  2039 GB/s         * capacity:         80  GB

``mma_efficiency``/``mem_efficiency`` derate peak to achievable (flash
attention kernels typically reach 50-70% of peak MMA and ~80% of peak
bandwidth).  The latency rule is::

    latency = max(memory_time, tensor_time + cuda_time) + overhead

Tensor-core and CUDA-core work is summed, not maxed: inside a flash
attention tile loop the softmax (CUDA) is data-dependent on the scores
(tensor) of the same tile, so the two pipelines serialize — which is
exactly why FP32 exponentiation shows up as 30%+ of kernel time (§4) and
why moving it to tensor-core-friendly SAS pays off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.perf.counts import OpCounts

__all__ = ["GPUSpec", "A100_80GB", "H100_80GB"]


@dataclass(frozen=True)
class GPUSpec:
    """Throughput/capacity description of one GPU."""

    name: str
    fp16_tensor_tflops: float
    int8_tensor_tops: float
    fp32_cuda_tflops: float
    fp16_cuda_tflops: float
    int_alu_tops: float
    hbm_bandwidth_gbps: float
    hbm_capacity_gb: float
    mma_efficiency: float = 0.6
    #: INT8 IMMA pipelines reach a smaller fraction of their (2x) peak than
    #: FP16 HMMA in attention-shaped kernels (operand layout conversions,
    #: no async-copy INT4 paths) — calibrated so the prefill speedup lands
    #: in the paper's "up to 1.8x" regime rather than an ideal 2x.
    int8_mma_efficiency: float = 0.52
    cuda_efficiency: float = 0.7
    mem_efficiency: float = 0.8
    kernel_overhead_us: float = 5.0
    #: Per-direction NVLink bandwidth between peers in one TP group
    #: (A100 NVLink3: 600 GB/s bidirectional = 300 GB/s each way).
    link_bandwidth_gbps: float = 300.0
    #: Fraction of peak link bandwidth NCCL ring collectives achieve.
    link_efficiency: float = 0.75
    #: Per-hop launch/sync latency of one collective step (NCCL ring hop).
    link_latency_us: float = 2.0

    def _rate(self, peak_tera: float, eff: float) -> float:
        """Achievable ops/s from a peak tera-rate and an efficiency."""
        return peak_tera * 1e12 * eff

    def tensor_time(self, counts: OpCounts) -> float:
        """Seconds of tensor-core work."""
        t = counts.fp16_tc / self._rate(self.fp16_tensor_tflops, self.mma_efficiency)
        t += counts.int8_tc / self._rate(self.int8_tensor_tops, self.int8_mma_efficiency)
        return t

    def cuda_time(self, counts: OpCounts) -> float:
        """Seconds of CUDA-core (non-tensor) work."""
        t = counts.fp32_cuda / self._rate(self.fp32_cuda_tflops, self.cuda_efficiency)
        t += counts.fp16_cuda / self._rate(self.fp16_cuda_tflops, self.cuda_efficiency)
        t += counts.int_alu / self._rate(self.int_alu_tops, self.cuda_efficiency)
        return t

    def memory_time(self, counts: OpCounts) -> float:
        """Seconds of HBM traffic."""
        bw = self.hbm_bandwidth_gbps * 1e9 * self.mem_efficiency
        return (counts.bytes_read + counts.bytes_written) / bw

    def latency(self, counts: OpCounts) -> float:
        """Roofline latency in seconds, including per-kernel overheads.

        Counts holding arrays (one lane per context length) give an
        array of latencies, element-wise the same IEEE operations as the
        scalar call.  Scalar counts keep the builtin ``max``: it returns
        a Python float and costs a fraction of ``np.maximum``.
        """
        compute = self.tensor_time(counts) + self.cuda_time(counts)
        mem = self.memory_time(counts)
        if isinstance(compute, np.ndarray) or isinstance(mem, np.ndarray):
            peak = np.maximum(compute, mem)
        else:
            peak = max(compute, mem)
        return peak + counts.kernel_launches * self.kernel_overhead_us * 1e-6

    def transfer_time(self, nbytes: float) -> float:
        """Seconds to ship ``nbytes`` point-to-point over one link.

        The KV-migration cost model for disaggregated prefill/decode
        fleets: one bandwidth term at the derated link rate plus one
        fixed launch/sync latency.  Zero-size transfers cost zero (no
        message, no launch), and the cost is strictly monotone in bytes
        above that — properties the test suite pins.
        """
        if nbytes <= 0:
            return 0.0
        bw = self.link_bandwidth_gbps * 1e9 * self.link_efficiency
        return nbytes / bw + self.link_latency_us * 1e-6

    def allreduce_time(self, nbytes: float, ranks: int) -> float:
        """Seconds for a ring all-reduce of ``nbytes`` across ``ranks`` peers.

        Ring collective: ``2 * (ranks - 1)`` steps, each moving
        ``nbytes / ranks`` over one link, plus a fixed per-step hop latency.
        The bandwidth term shrinks toward ``2 * nbytes / bw`` as ranks grow
        while the latency term grows linearly — which is what makes
        tensor-parallel scaling saturate.
        """
        if ranks <= 1 or nbytes <= 0:
            return 0.0
        bw = self.link_bandwidth_gbps * 1e9 * self.link_efficiency
        steps = 2 * (ranks - 1)
        return steps * (nbytes / ranks) / bw + steps * self.link_latency_us * 1e-6


A100_80GB = GPUSpec(
    name="A100-SXM-80GB",
    fp16_tensor_tflops=312.0,
    int8_tensor_tops=624.0,
    fp32_cuda_tflops=19.5,
    fp16_cuda_tflops=78.0,
    int_alu_tops=19.5,
    hbm_bandwidth_gbps=2039.0,
    hbm_capacity_gb=80.0,
)

# H100 SXM (dense rates, no structured sparsity): the device
# FlashAttention-3 targets.  Useful for projecting whether TurboAttention's
# advantages persist on Hopper — the FP32-exponentiation penalty shrinks
# (larger SFU/CUDA throughput relative to A100) but the INT8-vs-FP16 tensor
# ratio and the KV-bandwidth arithmetic are unchanged.
H100_80GB = GPUSpec(
    name="H100-SXM-80GB",
    fp16_tensor_tflops=989.5,
    int8_tensor_tops=1978.9,
    fp32_cuda_tflops=66.9,
    fp16_cuda_tflops=133.8,
    int_alu_tops=66.9,
    hbm_bandwidth_gbps=3350.0,
    hbm_capacity_gb=80.0,
    link_bandwidth_gbps=450.0,  # NVLink4: 900 GB/s bidirectional
)
