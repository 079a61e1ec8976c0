"""Exact snapshot of ``other_nf("efd")`` at 200 packets.

Each mode's cycles/packet and per-backend dispatch counts, plus the
filled table's seeds, recorded before the sweep filled one EFD table
and copied it per mode.  Any change to how the table is filled, copied
or looked up shows up here as an exact diff.
"""

from repro.analysis import experiments

#: (mode, cycles_per_packet, nf.dispatched) per point.
EFD = [
    ("PURE_EBPF", 298.0, [57, 46, 46, 51]),
    ("KERNEL", 195.0, [57, 46, 46, 51]),
    ("ENETSTL", 201.0, [57, 46, 46, 51]),
]


def test_efd_sweep_snapshot(monkeypatch):
    nfs = []
    measure = experiments._measure

    def spy(nf, *args, **kwargs):
        nfs.append(nf)
        return measure(nf, *args, **kwargs)

    monkeypatch.setattr(experiments, "_measure", spy)
    sweep = experiments.other_nf("efd", n_packets=200)
    assert [
        (p.mode.name, p.cycles_per_packet, nf.dispatched)
        for p, nf in zip(sweep.points, nfs)
    ] == EFD
    for nf in nfs:
        seeds = nf.table._group_seed
        assert (nf.table.n_flows, sum(seeds), max(seeds)) == (1024, 55905, 40084)
    # Each mode replays its own copy of the one filled table.
    assert len({id(nf.table._group_members) for nf in nfs}) == len(nfs)
