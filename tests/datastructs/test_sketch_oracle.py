"""Every count-min and Bloom form against ``repro.datastructs``.

``CountMinSketch`` and ``BloomFilter`` are the one implementation of
each algorithm.  Each other form is fed one key stream (repeats, 0,
keys of 2^64 and above) and must leave the same rows or bits and give
the same estimates or answers as the reference.  The forms:

- the hash kfuncs ``hash_cnt``, ``hash_cnt_lowlevel``,
  ``hash_setbits`` and ``hash_testbits``, each handed the structure it
  runs on, in all three modes;
- ``CountMinNF``, ``NitroSketchNF`` and ``BloomFilterNF`` in all three
  modes and on both packet paths;
- the IR count-min kfuncs, interpreted and as fused source;
- the per-CPU merges.

Where forms differ by design, the reference says so:

- the row hash: ``crc_hash32`` for ``CountMinNF`` at depth <= 2 outside
  pure eBPF (one hardware CRC per row) and for ``NitroSketchNF``
  outside pure eBPF; ``fast_hash32`` for the SIMD batch and the
  software hashes; ``salted_hash32`` for the IR kfuncs, whose VM
  registers hold the key's low 64 bits;
- RakeLimit's four levels: each level is a one-row sketch over its own
  key (seed 1000 * level), and the kfunc returns the maximum;
- the Polycube learn filter: two hashes (seeds 300 and 301) into one
  byte per bit, not a ``BloomFilter``'s packed words.
"""

from hypothesis import given, settings, strategies as st
import pytest

from repro.apps.ir import (
    PCN_FILTER_BITS,
    RAKE_LEVELS,
    RAKE_WIDTH,
    SK_ROWS,
    SK_WIDTH,
    ir_registry,
)
from repro.core.algorithms.hashing import (
    HashAlgos,
    crc_hash32,
    fast_hash32,
    salted_hash32,
)
from repro.datastructs import BloomFilter, CountMinSketch
from repro.ebpf.cost_model import ExecMode
from repro.ebpf.progs import CM_ROWS, CM_WIDTH, runnable_registry
from repro.ebpf.runtime import BpfRuntime
from repro.net.multicore import (
    merged_bloom_contains,
    merged_bloom_words,
    merged_countmin_estimate,
    merged_countmin_rows,
)
from repro.net.packet import Packet, XdpAction
from repro.nfs import BloomFilterNF, CountMinNF, NitroSketchNF

MASK64 = (1 << 64) - 1
MODES = list(ExecMode)

#: Keys span the whole 104-bit ``Packet.key_int`` range.
key = st.one_of(
    st.just(0),
    st.integers(0, MASK64),
    st.integers(1 << 64, (1 << 104) - 1),
)


@st.composite
def streams(draw):
    """A key stream over a small pool, so keys repeat."""
    pool = draw(st.lists(key, min_size=1, max_size=8, unique=True))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))


def packet(k):
    """The packet whose ``key_int`` is ``k`` (``k < 2^104``)."""
    return Packet(
        k & 0xFFFFFFFF,
        k >> 32 & 0xFFFFFFFF,
        k >> 64 & 0xFFFF,
        k >> 80 & 0xFFFF,
        k >> 96 & 0xFF,
    )


def reference(stream, depth, width, hash, delta=1):
    sketch = CountMinSketch(depth, width, hash=hash)
    for k in stream:
        sketch.update(k, delta)
    return sketch


def countmin_hash(mode, depth):
    """``CountMinNF``'s row hash: one CRC per row when few rows are
    cheaper than the SIMD batch, outside pure eBPF."""
    if mode != ExecMode.PURE_EBPF and depth <= 2:
        return crc_hash32
    return fast_hash32


def nitrosketch_hash(mode):
    """``NitroSketchNF``'s row hash: a CRC per fired row outside pure
    eBPF, a software hash inside it."""
    return fast_hash32 if mode == ExecMode.PURE_EBPF else crc_hash32


SETTINGS = settings(max_examples=40, deadline=None)


# -- count-min -----------------------------------------------------------------


@SETTINGS
@given(stream=streams(), depth=st.integers(1, 8), width=st.sampled_from([61, 64]))
def test_sketch_update_estimate_columns(stream, depth, width):
    for hash in (fast_hash32, crc_hash32):
        sketch = CountMinSketch(depth, width, hash=hash)
        for k in stream:
            est = sketch.update(k)
            cols = sketch.columns(k)
            assert cols == [hash(k, row) % width for row in range(depth)]
            assert est == min(sketch.rows[r][c] for r, c in enumerate(cols))
            assert est == sketch.estimate(k)
        assert sketch.total == len(stream)
        # Wider keys hash as their low 64 bits.
        masked = reference([k & MASK64 for k in stream], depth, width, hash)
        assert masked.rows == sketch.rows


@SETTINGS
@given(stream=streams(), depth=st.integers(1, 8), width=st.sampled_from([61, 64]))
@pytest.mark.parametrize("mode", MODES)
def test_hash_kfuncs_count_like_the_sketch(mode, stream, depth, width):
    ref = CountMinSketch(depth, width)
    rt = BpfRuntime(mode=mode)
    algos = HashAlgos(rt)
    single = CountMinSketch(depth, width)
    lowlevel = CountMinSketch(depth, width)
    for k in stream:
        expect = ref.update(k)
        assert algos.hash_cnt(single, k) == expect
        assert algos.hash_cnt_lowlevel(lowlevel, k) == expect
    assert single.rows == lowlevel.rows == ref.rows
    assert single.total == lowlevel.total == len(stream)
    rt.cycles.reset()
    algos.hash_cnt(single, stream[0])
    assert rt.cycles.total == algos.prices.hash_op(depth)


@SETTINGS
@given(
    stream=streams(),
    depth=st.integers(1, 8),
    batch=st.integers(1, 16),
)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("path", ["process", "process_batch"])
def test_countmin_nf(path, mode, stream, depth, batch):
    ref = reference(stream, depth, 64, countmin_hash(mode, depth))
    nf = CountMinNF(BpfRuntime(mode=mode), depth=depth, width=64)
    pkts = [packet(k) for k in stream]
    if path == "process":
        assert {nf.process(p) for p in pkts} == {XdpAction.DROP}
    else:
        for i in range(0, len(pkts), batch):
            assert nf.process_batch(pkts[i : i + batch]) == {
                XdpAction.DROP: len(pkts[i : i + batch])
            }
    assert nf.rows == ref.rows
    assert nf.sketch.total == len(stream)
    for k in set(stream):
        assert nf.true_free_estimate(k) == ref.estimate(k)
        assert nf.estimate(k) == ref.estimate(k)


@SETTINGS
@given(stream=streams(), depth=st.integers(1, 8))
@pytest.mark.parametrize("mode", MODES)
def test_nitrosketch_at_p1_is_a_countmin(mode, stream, depth):
    ref = reference(stream, depth, 64, nitrosketch_hash(mode), delta=1.0)
    nf = NitroSketchNF(BpfRuntime(mode=mode), depth=depth, width=64, update_prob=1.0)
    for k in stream:
        nf.process(packet(k))
    assert nf.rows == ref.rows
    for k in set(stream):
        assert nf.estimate(k) == ref.estimate(k)


def _fused(impl):
    """Compile an inline kfunc spec as the fuser does: ``r0 = (expr)
    & MASK64`` after the spec's set-up lines, constants bound as
    globals.  Returns the function and the bound constants."""
    bound = {}

    def bind(hint, value):
        bound[f"_c{hint}"] = value
        return f"_c{hint}"

    lines, expr = impl._fuse_inline(["r1"], bind, lambda i, seed: None)
    body = "".join(f"    {line}\n" for line in lines)
    scope = dict(bound)
    exec(f"def kfunc(r1):\n{body}    return ({expr}) & {MASK64}\n", scope)
    return scope["kfunc"], bound


def _rows(impl):
    """The counter rows a salted count-min kfunc's inline spec binds."""
    (rows,) = _fused(impl)[1].values()
    return rows


def _salted_kfuncs():
    """Both salted count-min kfuncs of two same-seed registries, one
    run interpreted and one fused: (name, interp, fused, interp rows,
    fused rows, depth, width)."""
    for name, depth, width in (
        ("enetstl_cm_update", CM_ROWS, CM_WIDTH),
        ("enetstl_sketch_cnt", SK_ROWS, SK_WIDTH),
    ):
        interp = ir_registry(0).get(name).impl
        fused, bound = _fused(ir_registry(0).get(name).impl)
        (fused_rows,) = bound.values()
        yield name, interp, fused, _rows(interp), fused_rows, depth, width


@SETTINGS
@given(stream=streams())
def test_ir_salted_countmin_kfuncs(stream):
    for name, interp, fused, interp_rows, fused_rows, depth, width in _salted_kfuncs():
        # The reference sees the raw keys, the kfuncs a 64-bit register.
        ref = CountMinSketch(depth, width, hash=salted_hash32)
        for k in stream:
            est = ref.update(k)
            assert interp(None, k & MASK64) == est, name
            assert fused(k & MASK64) == est, name
        assert interp_rows == fused_rows == ref.rows, name


def test_bundled_registry_runs_the_same_kfunc():
    reg = runnable_registry(0)
    impl = reg.get("enetstl_cm_update").impl
    rows = _rows(impl)
    ref = CountMinSketch(CM_ROWS, CM_WIDTH, hash=salted_hash32)
    for k in (0, 1, MASK64, 12345, 1):
        assert impl(None, k) == ref.update(k)
    assert rows == ref.rows


@SETTINGS
@given(levels=st.lists(st.tuples(key, key, key, key), min_size=1, max_size=30))
def test_rakelimit_levels_hash_their_own_keys(levels):
    """RakeLimit is four one-row sketches, level ``i`` over key ``i``
    with seed ``1000 * i``, answering the worst (largest) level."""
    reg = ir_registry(0)
    impl = reg.get("enetstl_rake_update").impl
    refs = [
        CountMinSketch(
            1, RAKE_WIDTH, hash=lambda k, row, seed=1000 * i: fast_hash32(k, seed)
        )
        for i in range(RAKE_LEVELS)
    ]
    for keys in levels:
        keys = [k & MASK64 for k in keys]
        worst = max(ref.update(k) for ref, k in zip(refs, keys))
        assert impl(None, *keys) == worst
    assert reg.app_state.rake_levels == [ref.rows[0] for ref in refs]


@SETTINGS
@given(stream=streams())
def test_polycube_learn_filter_is_two_bytes_per_mac(stream):
    """The learn filter sets one byte at each of two seeds' bits."""
    reg = ir_registry(0)
    learn = reg.get("enetstl_fdb_learn").impl
    bits = [0] * PCN_FILTER_BITS
    for mac in stream:
        mac &= MASK64
        pos = [fast_hash32(mac, seed) % PCN_FILTER_BITS for seed in (300, 301)]
        fresh = not all(bits[p] for p in pos)
        for p in pos:
            bits[p] = 1
        assert learn(None, mac, 1) == int(fresh)
    assert reg.app_state.learn_filter == bits


@SETTINGS
@given(stream=streams(), n_cores=st.integers(1, 4))
def test_merged_per_core_sketches(stream, n_cores):
    for depth in (2, 4):
        ref = reference(stream, depth, 64, countmin_hash(ExecMode.ENETSTL, depth))
        cores = [
            CountMinNF(BpfRuntime(mode=ExecMode.ENETSTL, seed=c), depth=depth, width=64)
            for c in range(n_cores)
        ]
        for k in stream:
            cores[k % n_cores].process(packet(k))
        assert merged_countmin_rows(cores) == ref.rows
        for k in set(stream):
            assert merged_countmin_estimate(cores, k) == ref.estimate(k)
    ref = reference(stream, 4, 64, crc_hash32, delta=1.0)
    nitro = [
        NitroSketchNF(BpfRuntime(mode=ExecMode.KERNEL, seed=c), depth=4, width=64,
                      update_prob=1.0)
        for c in range(n_cores)
    ]
    for k in stream:
        nitro[k % n_cores].process(packet(k))
    assert merged_countmin_rows(nitro) == ref.rows
    for k in set(stream):
        assert merged_countmin_estimate(nitro, k) == ref.estimate(k)


# -- Bloom ---------------------------------------------------------------------


def bloom_reference(members, n_bits=1024, n_hashes=4):
    ref = BloomFilter(n_bits, n_hashes)
    for k in members:
        ref.add(k)
    return ref


#: Small filters fill up, so partial and false matches are common.
n_bits = st.sampled_from([64, 128, 1024])
#: Many distinct query keys, members among them.
queries = st.lists(key, min_size=1, max_size=64)


@SETTINGS
@given(members=streams(), queries=queries, n_bits=n_bits)
def test_bloom_filter_answers_from_its_bits(members, queries, n_bits):
    ref = bloom_reference(members, n_bits)
    for k in members:
        assert k in ref
    for k in queries:
        bits = [fast_hash32(k, seed) % ref.n_bits for seed in range(ref.n_hashes)]
        assert (k in ref) == all(ref.words[b // 64] >> (b % 64) & 1 for b in bits)


@SETTINGS
@given(members=streams(), queries=queries, n_bits=n_bits)
@pytest.mark.parametrize("mode", MODES)
def test_bloom_nf_and_kfuncs(mode, members, queries, n_bits):
    ref = bloom_reference(members, n_bits)
    algos = HashAlgos(BpfRuntime(mode=mode))
    bloom = BloomFilter(ref.n_bits, ref.n_hashes)
    for k in members:
        algos.hash_setbits(bloom, k)
    assert bloom.words == ref.words

    added = BloomFilterNF(BpfRuntime(mode=mode), n_bits=ref.n_bits)
    for k in members:
        added.add(k)
    populated = BloomFilterNF(BpfRuntime(mode=mode), n_bits=ref.n_bits)
    populated.populate(members)
    assert added.words == populated.words == ref.words

    batched = BloomFilterNF(BpfRuntime(mode=mode), n_bits=ref.n_bits)
    batched.populate(members)
    pkts = [packet(k) for k in queries]
    verdicts = batched.process_batch(pkts)
    hits = sum(k in ref for k in queries)
    assert verdicts.get(XdpAction.PASS, 0) == hits
    assert verdicts.get(XdpAction.DROP, 0) == len(queries) - hits
    for k in queries:
        assert algos.hash_testbits(bloom, k) == (k in ref)
        assert added.contains(k) == (k in ref)
        assert added.process(packet(k)) == (
            XdpAction.PASS if k in ref else XdpAction.DROP
        )


@SETTINGS
@given(
    members=streams(), queries=queries, n_bits=n_bits, n_cores=st.integers(1, 4)
)
def test_merged_bloom(members, queries, n_bits, n_cores):
    ref = bloom_reference(members, n_bits)
    cores = [
        BloomFilterNF(BpfRuntime(mode=ExecMode.ENETSTL, seed=c), n_bits=ref.n_bits)
        for c in range(n_cores)
    ]
    for k in members:
        cores[k % n_cores].populate([k])
    assert merged_bloom_words(cores) == ref.words
    for k in members + queries:
        assert merged_bloom_contains(cores, k) == (k in ref)
