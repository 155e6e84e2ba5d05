#!/usr/bin/env python3
"""The coding layer on its own: Cauchy Reed-Solomon over GF(2^8).

Encodes a byte payload into k data + m parity chunks, decodes it from
every possible survivor set, demonstrates that the paper's XOR-only
bitmatrix encode matches the fused kernel, and shows the compiled XOR
schedules (dumb vs smart).

Run:
    python examples/erasure_coding_demo.py
"""

import itertools

import numpy as np

from repro.ec.base import CodeParams
from repro.ec.cauchy import CauchyRSCode
from repro.ec.schedule import dumb_schedule, smart_schedule
from repro.ec.threadpool import ThreadPoolEncoder


def main() -> None:
    k, m = 3, 2
    code = CauchyRSCode(CodeParams(k=k, m=m))
    print(f"Cauchy RS code: k={k} data chunks, m={m} parity chunks, GF(2^8)")
    print("generator matrix (systematic):")
    print(code.generator_matrix)

    # --- payload round trip through every survivor set ------------------
    payload = b"ECCheck encodes checkpoints without serializing them. " * 40
    block = -(-len(payload) // k)  # zero-pad to k equal blocks
    padded = np.zeros(k * block, dtype=np.uint8)
    padded[: len(payload)] = np.frombuffer(payload, dtype=np.uint8)
    data = list(padded.reshape(k, block))
    chunks = data + code.encode_fast(data)
    print(f"\npayload {len(payload)} B -> {len(chunks)} chunks of {block} B each")

    survivor_sets = list(itertools.combinations(range(k + m), k))
    for survivors in survivor_sets:
        decoded = code.decode_fast({i: chunks[i] for i in survivors})
        assert np.concatenate(decoded).tobytes()[: len(payload)] == payload
    print(f"decoded exactly from all {len(survivor_sets)} possible "
          f"{k}-chunk survivor sets")

    # --- bitmatrix (XOR-only) reference ---------------------------------
    rng = np.random.default_rng(0)
    blocks = [rng.integers(0, 256, size=4096, dtype=np.uint8) for _ in range(k)]
    parity = code.encode_fast(blocks)
    xor_parity = code.encode_bitmatrix_reference(blocks)
    identical = all(np.array_equal(a, b) for a, b in zip(parity, xor_parity))
    print(f"\nXOR-only bitmatrix encoding == fused GF kernel: {identical}")

    dumb = dumb_schedule(code.parity_bitmatrix, k, m, 8)
    smart = smart_schedule(code.parity_bitmatrix, k, m, 8)
    print(f"XOR schedule: naive {dumb.total_xors} strip XORs, "
          f"smart {smart.total_xors} "
          f"({100 * (dumb.total_xors - smart.total_xors) / dumb.total_xors:.0f}% saved)")

    # --- thread-pool encoder (Sec. IV-A) ---------------------------------
    pool = ThreadPoolEncoder(code, threads=4, min_subtask_bytes=512)
    pooled = pool.encode(blocks)
    assert all(np.array_equal(a, b) for a, b in zip(parity, pooled))
    print(f"thread-pool encode: {pool.last_stats.sub_tasks} sub-tasks on "
          f"{pool.last_stats.threads} threads, byte-identical output")


if __name__ == "__main__":
    main()
