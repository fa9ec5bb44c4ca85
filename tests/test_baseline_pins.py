"""Pinned storage accounting and KIVI cache reads of every baseline backend.

Each case runs one prefill and then 70 decode steps, which cross several
group flushes at every (group, residual) setting; the window is checked
after every step.  Storage counts depend on shapes alone, and KIVI's
dequantized cache comes from elementwise NumPy only (min/max, divide,
``rint``, multiply-add, float16 casts), so both are pinned as literals
that read the same on any host.  Attention outputs, GEAR's SVD factors
and FP8's ``log2``/``exp2`` rounding depend on the host's float kernels
and are not pinned here.

``python tests/test_baseline_pins.py`` prints one digest per case over
the prefill output, every decode output and the stored arrays, for
comparing two trees on one host.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.baselines import (
    FP8Attention,
    FP16Attention,
    GEARAttention,
    GEARConfig,
    KIVIAttention,
    KIVIConfig,
)

STEPS = 70

#: name -> (query heads, KV heads, prompt tokens, head dim, causal, seed)
GEOMETRIES = {
    "q4kv2n150c": (4, 2, 150, 32, True, 150),
    "q2kv2n40": (2, 2, 40, 16, False, 40),
    "q8kv1n97c": (8, 1, 97, 24, True, 97),
}

#: (group_size, residual) windows: equal, small, residual > group, group > residual.
WINDOWS = ((64, 64), (32, 32), (16, 48), (48, 16))


def _backends():
    out = {"fp16": FP16Attention}
    for bits in (2, 3, 4, 8):
        for g, r in WINDOWS:
            out[f"kivi{bits}g{g}r{r}"] = lambda b=bits, g=g, r=r: KIVIAttention(
                KIVIConfig(bits=b, group_size=g, residual=r)
            )
            for rank in (1, 4):
                out[f"gear{bits}g{g}r{r}rank{rank}"] = (
                    lambda b=bits, g=g, r=r, k=rank: GEARAttention(
                        GEARConfig(bits=b, group_size=g, residual=r, rank=k)
                    )
                )
    for tile in (16, 64):
        out[f"fp8tile{tile}"] = lambda t=tile: FP8Attention(tile=t)
    return out


BACKENDS = _backends()
CASES = [f"{b}/{g}" for b in BACKENDS for g in GEOMETRIES]


def _digest(arrays) -> str:
    h = hashlib.blake2b(digest_size=8)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _run(case):
    """Prefill then ``STEPS`` decode steps; returns the final state, a
    snapshot after prefill and after every step, the prefill output and
    the decode outputs."""
    name, geo = case.split("/")
    hq, hkv, n, d, causal, seed = GEOMETRIES[geo]
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((hq, n, d))
    k = rng.standard_normal((hkv, n, d))
    v = rng.standard_normal((hkv, n, d))
    backend = BACKENDS[name]()
    out, state = backend.prefill(q, k, v, causal=causal)
    snapshots = [_snapshot(name, state, reads=True)]
    outs = []
    for step in range(1, STEPS + 1):
        q_t = rng.standard_normal((hq, d))
        k_t = rng.standard_normal((hkv, d))
        v_t = rng.standard_normal((hkv, d))
        outs.append(backend.decode_step(q_t, k_t, v_t, state))
        snapshots.append(_snapshot(name, state, reads=step == STEPS))
    return state, snapshots, out, outs


def _snapshot(name, state, reads):
    snap = {
        "seq_len": state.seq_len,
        "storage_bits": state.storage_bits,
        "effective_bits": state.effective_bits_per_value(),
        "compression": state.compression_ratio(),
    }
    if name.startswith(("kivi", "gear")):
        snap["groups"] = len(state.k_groups)
        snap["resid"] = state.k_resid.shape[1]
    if reads and name.startswith("kivi"):
        snap["dequantized"] = _digest(state.dequantized())
    return snap


def _stored_arrays(name, state):
    """Every array a state stores, in one fixed order."""
    if name == "fp16":
        return [state.k_resid, state.v_resid]
    if name.startswith("fp8"):
        empty = [state.k_resid[:, :0]]
        return [
            np.concatenate([t.values for t in state.k_groups] + empty, axis=1),
            np.concatenate([t.values for t in state.v_groups] + empty, axis=1),
            *(t.scale for t in state.k_groups), *(t.scale for t in state.v_groups),
            state.k_resid, state.v_resid,
        ]
    arrays = []
    for grp in state.k_groups + state.v_groups:
        qt = getattr(grp, "qt", grp)
        arrays += [qt.codes, qt.scale, qt.zero_point]
        if qt is not grp:
            arrays += [grp.a, grp.b]
    return arrays + [state.k_resid, state.v_resid]


def case_digest(case) -> str:
    """One digest over a case's prefill output, decode outputs and stores."""
    state, _snaps, out, outs = _run(case)
    return _digest([out, *outs, *_stored_arrays(case.split("/")[0], state)])


#: case -> storage bits after prefill and after the decode steps, then (KIVI
#: only) digests of ``dequantized()`` at the same two points.
PINS = {
    "fp16/q4kv2n150c": (307200, 450560),
    "fp16/q2kv2n40": (40960, 112640),
    "fp16/q8kv1n97c": (74496, 128256),
    "kivi2g64r64/q4kv2n150c": (90112, 124928, "7f3ba897c40faabc", "d763707204d54f85"),
    "kivi2g64r64/q2kv2n40": (40960, 60416, "8af22cf7f1e5d45c", "7a88672b80563fe0"),
    "kivi2g64r64/q8kv1n97c": (34304, 47872, "a9a5b57f81b8b4f1", "5a79ed775199aa2b"),
    "gear2g64r64rank1/q4kv2n150c": (102400, 143360),
    "gear2g64r64rank1/q2kv2n40": (40960, 65536),
    "gear2g64r64rank1/q8kv1n97c": (37120, 53504),
    "gear2g64r64rank4/q4kv2n150c": (139264, 198656),
    "gear2g64r64rank4/q2kv2n40": (40960, 80896),
    "gear2g64r64rank4/q8kv1n97c": (45568, 70400),
    "kivi2g32r32/q4kv2n150c": (94208, 131072, "67e6ef05f5bab91a", "83ab0f930f42b8fd"),
    "kivi2g32r32/q2kv2n40": (15360, 35840, "0dba260443c30d84", "ab68e88f5c030d4c"),
    "kivi2g32r32/q8kv1n97c": (15360, 29696, "b52b825ac08cbce6", "c4c88ed4f5b4df57"),
    "gear2g32r32rank1/q4kv2n150c": (110592, 155648),
    "gear2g32r32rank1/q2kv2n40": (18432, 45056),
    "gear2g32r32rank1/q8kv1n97c": (20736, 38656),
    "gear2g32r32rank4/q4kv2n150c": (159744, 229376),
    "gear2g32r32rank4/q2kv2n40": (27648, 72704),
    "gear2g32r32rank4/q8kv1n97c": (36864, 65536),
    "kivi2g16r48/q4kv2n150c": (135168, 180224, "66edf6f724944334", "eaba8a9a27abd334"),
    "kivi2g16r48/q2kv2n40": (40960, 63488, "8af22cf7f1e5d45c", "6a717d9789161724"),
    "kivi2g16r48/q8kv1n97c": (36608, 52480, "d31afc271ca1f16d", "e7d3018a21bd138e"),
    "gear2g16r48rank1/q4kv2n150c": (156672, 214016),
    "gear2g16r48rank1/q2kv2n40": (40960, 71680),
    "gear2g16r48rank1/q8kv1n97c": (41728, 62720),
    "gear2g16r48rank4/q4kv2n150c": (221184, 315392),
    "gear2g16r48rank4/q2kv2n40": (40960, 96256),
    "gear2g16r48rank4/q8kv1n97c": (57088, 93440),
    "kivi2g48r16/q4kv2n150c": (64512, 126976, "f8c0b1e2d29dd6a7", "8b428a8e83a589f1"),
    "kivi2g48r16/q2kv2n40": (40960, 34816, "8af22cf7f1e5d45c", "6f278401bdbbed92"),
    "kivi2g48r16/q8kv1n97c": (14592, 38400, "ce7413ae49019376", "5234785e68aa55a5"),
    "gear2g48r16rank1/q4kv2n150c": (79872, 147456),
    "gear2g48r16rank1/q2kv2n40": (40960, 43008),
    "gear2g48r16rank1/q8kv1n97c": (19200, 45312),
    "gear2g48r16rank4/q4kv2n150c": (125952, 208896),
    "gear2g48r16rank4/q2kv2n40": (40960, 67584),
    "gear2g48r16rank4/q8kv1n97c": (33024, 66048),
    "kivi3g64r64/q4kv2n150c": (106496, 149504, "329a58222b607407", "0fe9b1b8d6dd6e01"),
    "kivi3g64r64/q2kv2n40": (40960, 64512, "8af22cf7f1e5d45c", "f76e2aef43959ad6"),
    "kivi3g64r64/q8kv1n97c": (37376, 54016, "2284651ef68bdf90", "a849df92ca6965e1"),
    "gear3g64r64rank1/q4kv2n150c": (118784, 167936),
    "gear3g64r64rank1/q2kv2n40": (40960, 69632),
    "gear3g64r64rank1/q8kv1n97c": (40192, 59648),
    "gear3g64r64rank4/q4kv2n150c": (155648, 223232),
    "gear3g64r64rank4/q2kv2n40": (40960, 84992),
    "gear3g64r64rank4/q8kv1n97c": (48640, 76544),
    "kivi3g32r32/q4kv2n150c": (110592, 155648, "da23fdadea9054cf", "f8d5464e73efe6b1"),
    "kivi3g32r32/q2kv2n40": (17408, 41984, "d53cd1bf1c7ac32b", "4a77c2364db30fb0"),
    "kivi3g32r32/q8kv1n97c": (19968, 37376, "38307c2a4993ba3a", "ddc1ffbee47bb7bf"),
    "gear3g32r32rank1/q4kv2n150c": (126976, 180224),
    "gear3g32r32rank1/q2kv2n40": (20480, 51200),
    "gear3g32r32rank1/q8kv1n97c": (25344, 46336),
    "gear3g32r32rank4/q4kv2n150c": (176128, 253952),
    "gear3g32r32rank4/q2kv2n40": (29696, 78848),
    "gear3g32r32rank4/q8kv1n97c": (41472, 73216),
    "kivi3g16r48/q4kv2n150c": (149504, 202752, "6036763c79cf860c", "2182759785f0a384"),
    "kivi3g16r48/q2kv2n40": (40960, 67584, "8af22cf7f1e5d45c", "d69f3e4d9067f77b"),
    "kivi3g16r48/q8kv1n97c": (39680, 58624, "ece0a42abead3eed", "659d2d968fa8235f"),
    "gear3g16r48rank1/q4kv2n150c": (171008, 236544),
    "gear3g16r48rank1/q2kv2n40": (40960, 75776),
    "gear3g16r48rank1/q8kv1n97c": (44800, 68864),
    "gear3g16r48rank4/q4kv2n150c": (235520, 337920),
    "gear3g16r48rank4/q2kv2n40": (40960, 100352),
    "gear3g16r48rank4/q8kv1n97c": (60160, 99584),
    "kivi3g48r16/q4kv2n150c": (82944, 151552, "b464cb955d0ee0ad", "84fd5567d84d270f"),
    "kivi3g48r16/q2kv2n40": (40960, 40960, "8af22cf7f1e5d45c", "dc5d92d992b5ff9d"),
    "kivi3g48r16/q8kv1n97c": (19200, 45312, "ed39421e7530bcdc", "b2561cb443dce03f"),
    "gear3g48r16rank1/q4kv2n150c": (98304, 172032),
    "gear3g48r16rank1/q2kv2n40": (40960, 49152),
    "gear3g48r16rank1/q8kv1n97c": (23808, 52224),
    "gear3g48r16rank4/q4kv2n150c": (144384, 233472),
    "gear3g48r16rank4/q2kv2n40": (40960, 73728),
    "gear3g48r16rank4/q8kv1n97c": (37632, 72960),
    "kivi4g64r64/q4kv2n150c": (122880, 174080, "78eb5bfc91b44fc3", "9a8fd88311aa4ee9"),
    "kivi4g64r64/q2kv2n40": (40960, 68608, "8af22cf7f1e5d45c", "9308ed3011239f3a"),
    "kivi4g64r64/q8kv1n97c": (40448, 60160, "592f0541bff1e01d", "a037aeb6b2478a4b"),
    "gear4g64r64rank1/q4kv2n150c": (135168, 192512),
    "gear4g64r64rank1/q2kv2n40": (40960, 73728),
    "gear4g64r64rank1/q8kv1n97c": (43264, 65792),
    "gear4g64r64rank4/q4kv2n150c": (172032, 247808),
    "gear4g64r64rank4/q2kv2n40": (40960, 89088),
    "gear4g64r64rank4/q8kv1n97c": (51712, 82688),
    "kivi4g32r32/q4kv2n150c": (126976, 180224, "534c0ddb0480f9b6", "42c496598f9b2e71"),
    "kivi4g32r32/q2kv2n40": (19456, 48128, "0965ed0d2de8a52d", "5bd3e22470046021"),
    "kivi4g32r32/q8kv1n97c": (24576, 45056, "61d5f57627eb14ef", "a8672fc342dc9c76"),
    "gear4g32r32rank1/q4kv2n150c": (143360, 204800),
    "gear4g32r32rank1/q2kv2n40": (22528, 57344),
    "gear4g32r32rank1/q8kv1n97c": (29952, 54016),
    "gear4g32r32rank4/q4kv2n150c": (192512, 278528),
    "gear4g32r32rank4/q2kv2n40": (31744, 84992),
    "gear4g32r32rank4/q8kv1n97c": (46080, 80896),
    "kivi4g16r48/q4kv2n150c": (163840, 225280, "d713bcff529f83a4", "9636622e1eec4706"),
    "kivi4g16r48/q2kv2n40": (40960, 71680, "8af22cf7f1e5d45c", "1d18bd6792a2ec6f"),
    "kivi4g16r48/q8kv1n97c": (42752, 64768, "8491b730b78dff12", "e2e1a50761dad7ac"),
    "gear4g16r48rank1/q4kv2n150c": (185344, 259072),
    "gear4g16r48rank1/q2kv2n40": (40960, 79872),
    "gear4g16r48rank1/q8kv1n97c": (47872, 75008),
    "gear4g16r48rank4/q4kv2n150c": (249856, 360448),
    "gear4g16r48rank4/q2kv2n40": (40960, 104448),
    "gear4g16r48rank4/q8kv1n97c": (63232, 105728),
    "kivi4g48r16/q4kv2n150c": (101376, 176128, "fa5f976f9e7412bf", "799e438b488d9487"),
    "kivi4g48r16/q2kv2n40": (40960, 47104, "8af22cf7f1e5d45c", "4f7abbaac14b982f"),
    "kivi4g48r16/q8kv1n97c": (23808, 52224, "40d656f2a230a08f", "2f53d5d198f4bdf3"),
    "gear4g48r16rank1/q4kv2n150c": (116736, 196608),
    "gear4g48r16rank1/q2kv2n40": (40960, 55296),
    "gear4g48r16rank1/q8kv1n97c": (28416, 59136),
    "gear4g48r16rank4/q4kv2n150c": (162816, 258048),
    "gear4g48r16rank4/q2kv2n40": (40960, 79872),
    "gear4g48r16rank4/q8kv1n97c": (42240, 79872),
    "kivi8g64r64/q4kv2n150c": (188416, 272384, "d9a21af1078e7c4e", "8a61645ccc6fa687"),
    "kivi8g64r64/q2kv2n40": (40960, 84992, "8af22cf7f1e5d45c", "fc738356245f0ec7"),
    "kivi8g64r64/q8kv1n97c": (52736, 84736, "b95f9721b42f5d97", "6b7a664ad10ca987"),
    "gear8g64r64rank1/q4kv2n150c": (200704, 290816),
    "gear8g64r64rank1/q2kv2n40": (40960, 90112),
    "gear8g64r64rank1/q8kv1n97c": (55552, 90368),
    "gear8g64r64rank4/q4kv2n150c": (237568, 346112),
    "gear8g64r64rank4/q2kv2n40": (40960, 105472),
    "gear8g64r64rank4/q8kv1n97c": (64000, 107264),
    "kivi8g32r32/q4kv2n150c": (192512, 278528, "34cbc45b952ebbf2", "bfe8cf9c813f4d2f"),
    "kivi8g32r32/q2kv2n40": (27648, 72704, "ee881bd52272f1a8", "8b8ba708003fccde"),
    "kivi8g32r32/q8kv1n97c": (43008, 75776, "15cfe3ecf742f319", "474d4db9b7cb09f4"),
    "gear8g32r32rank1/q4kv2n150c": (208896, 303104),
    "gear8g32r32rank1/q2kv2n40": (30720, 81920),
    "gear8g32r32rank1/q8kv1n97c": (48384, 84736),
    "gear8g32r32rank4/q4kv2n150c": (258048, 376832),
    "gear8g32r32rank4/q2kv2n40": (39936, 109568),
    "gear8g32r32rank4/q8kv1n97c": (64512, 111616),
    "kivi8g16r48/q4kv2n150c": (221184, 315392, "93d894d1ca04fd6a", "711014b5a74cc5e1"),
    "kivi8g16r48/q2kv2n40": (40960, 88064, "8af22cf7f1e5d45c", "716543373c718a43"),
    "kivi8g16r48/q8kv1n97c": (55040, 89344, "311c9e958b531cae", "e0154b82fea80ea6"),
    "gear8g16r48rank1/q4kv2n150c": (242688, 349184),
    "gear8g16r48rank1/q2kv2n40": (40960, 96256),
    "gear8g16r48rank1/q8kv1n97c": (60160, 99584),
    "gear8g16r48rank4/q4kv2n150c": (307200, 450560),
    "gear8g16r48rank4/q2kv2n40": (40960, 120832),
    "gear8g16r48rank4/q8kv1n97c": (75520, 130304),
    "kivi8g48r16/q4kv2n150c": (175104, 274432, "2d30c016e2312dbb", "f77d5dc19665de81"),
    "kivi8g48r16/q2kv2n40": (40960, 71680, "8af22cf7f1e5d45c", "1a4392b02ea456c4"),
    "kivi8g48r16/q8kv1n97c": (42240, 79872, "f8657182ff6d8399", "d9fbe4980a99da2d"),
    "gear8g48r16rank1/q4kv2n150c": (190464, 294912),
    "gear8g48r16rank1/q2kv2n40": (40960, 79872),
    "gear8g48r16rank1/q8kv1n97c": (46848, 86784),
    "gear8g48r16rank4/q4kv2n150c": (236544, 356352),
    "gear8g48r16rank4/q2kv2n40": (40960, 104448),
    "gear8g48r16rank4/q8kv1n97c": (60672, 107520),
    "fp8tile16/q4kv2n150c": (160320, 238400),
    "fp8tile16/q2kv2n40": (24704, 63872),
    "fp8tile16/q8kv1n97c": (37824, 67136),
    "fp8tile64/q4kv2n150c": (176256, 254144),
    "fp8tile64/q2kv2n40": (40960, 79936),
    "fp8tile64/q8kv1n97c": (49952, 79168),
}


def _expected_window(n, group, residual):
    """Groups flushed and tokens left in the window after ``n`` tokens."""
    m = max(group, residual)
    groups = 0 if n < m else (n - m) // group + 1
    return groups, n - groups * group


@pytest.mark.parametrize("case", CASES)
def test_accounting_and_reads_are_pinned(case):
    name, geo = case.split("/")
    _hq, hkv, n, d, _causal, _seed = GEOMETRIES[geo]
    _state, snapshots, _out, _outs = _run(case)
    # Flushes follow the window rule after prefill and after every step.
    for tokens, snap in enumerate(snapshots, start=n):
        assert snap["seq_len"] == tokens
        if "groups" in snap:
            cfg = BACKENDS[name]().config
            expected = _expected_window(tokens, cfg.group_size, cfg.residual)
            assert (snap["groups"], snap["resid"]) == expected
    pins = PINS[case]
    for phase, tokens in enumerate((n, n + STEPS)):
        snap = snapshots[tokens - n]
        bits = pins[phase]
        elements = 2 * tokens * hkv * d
        assert snap["storage_bits"] == bits
        assert snap["effective_bits"] == bits / elements
        assert snap["compression"] == elements * 16 / bits
        if "dequantized" in snap:
            assert snap["dequantized"] == pins[2 + phase]


if __name__ == "__main__":
    for case in CASES:
        print(case, case_digest(case))
