"""Ablations of ECCheck's design choices (DESIGN.md's ablation index)."""

from repro.bench.experiments import (
    ablation_cauchy_matrix,
    ablation_encoding_throughput,
    ablation_pipelining,
    ablation_placement,
    ablation_xor_schedule,
)


def test_ablation_placement(run_once):
    table = run_once(ablation_placement)
    print("\n" + table.render())
    by = {row["placement"]: row for row in table.rows}
    # Sweep-line selection moves strictly fewer bytes than naive placement
    # (the Fig. 9 example: 6 vs 7 traffic units).
    assert by["sweepline"]["inter_node_bytes"] < by["naive"]["inter_node_bytes"]
    ratio = by["naive"]["inter_node_bytes"] / by["sweepline"]["inter_node_bytes"]
    assert 1.1 < ratio < 1.25  # 7/6 ~= 1.167 on the Fig. 9 topology


def test_ablation_pipelining(run_once):
    table = run_once(ablation_pipelining)
    print("\n" + table.render())
    by = {row["pipelining"]: row for row in table.rows}
    # Overlapping encode/XOR/P2P substantially shortens step 3.
    assert by["on"]["step3_s"] < 0.75 * by["off"]["step3_s"]
    assert by["on"]["checkpoint_time_s"] < by["off"]["checkpoint_time_s"]


def test_ablation_xor_schedule(run_once):
    table = run_once(ablation_xor_schedule)
    print("\n" + table.render())
    for row in table.rows:
        assert row["smart_xors"] <= row["dumb_xors"], row
    # On dense Cauchy bitmatrices the savings are substantial.
    assert max(row["savings_pct"] for row in table.rows) > 20


def test_ablation_cauchy_matrix(run_once):
    table = run_once(ablation_cauchy_matrix)
    print("\n" + table.render())
    for row in table.rows:
        # Each optimisation layer only ever removes XORs.
        assert row["good"] <= row["original"], row
        assert row["good_plus_smart"] <= row["good"], row
    # Combined, the savings are large (>40% across these shapes).
    assert min(row["savings_pct"] for row in table.rows) > 40


def test_ablation_encoding_throughput(run_once):
    table = run_once(ablation_encoding_throughput)
    print("\n" + table.render())
    rows = {row["generator"]: row for row in table.rows}
    assert set(rows) == {"cauchy-good", "vandermonde"}
    # Both generators achieve real throughput on this machine.
    assert all(row["throughput_MiB_s"] > 1 for row in rows.values())
    # The XOR-minimised Cauchy generator needs one table gather per
    # (2, 2) group where Vandermonde needs four, and the paper's claim
    # (Cauchy RS encodes faster) holds on the path the engine runs.
    assert rows["cauchy-good"]["multiplies"] < rows["vandermonde"]["multiplies"]
    assert rows["cauchy-good"]["throughput_MiB_s"] > rows["vandermonde"]["throughput_MiB_s"]


def test_ablation_rack_aware_grouping(run_once):
    from repro.bench.experiments import ablation_rack_aware_grouping

    table = run_once(ablation_rack_aware_grouping)
    print("\n" + table.render())
    rates = {row["layout"]: row["survival_rate"] for row in table.rows}
    # Spreading each group across racks turns fatal rack outages into
    # single-member losses the parity absorbs.
    assert rates["transversal"] > rates["aligned"] + 0.03
    assert rates["transversal"] > 0.85


def test_ablation_incremental_checkpointing(run_once):
    from repro.bench.experiments import ablation_incremental_checkpointing

    table = run_once(ablation_incremental_checkpointing)
    print("\n" + table.render())
    by = {row["mode"]: row for row in table.rows}
    assert by["incremental"]["dirty_fraction"] < 1.0
    assert by["incremental"]["inter_node_GiB"] < by["full"]["inter_node_GiB"]
    assert by["incremental"]["checkpoint_time_s"] < by["full"]["checkpoint_time_s"]
