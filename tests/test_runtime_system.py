"""Runtime support system: logical heaps, validation intrinsics,
reduction merge, checkpoints, deferred I/O."""

import pytest

from repro.classify import HeapKind
from repro.interp import Misspeculation
from repro.interp.memory import heap_tag_of
from repro.runtime.iodefer import DeferredOutput


class TestDeferredOutput:
    def test_commit_in_iteration_order(self):
        d = DeferredOutput()
        d.emit(3, "c")
        d.emit(1, "a")
        d.emit(1, "a2")
        d.emit(2, "b")
        sink = []
        n = d.commit_range(0, 4, sink.append)
        assert sink == ["a", "a2", "b", "c"] and n == 4

    def test_partial_commit_keeps_rest(self):
        d = DeferredOutput()
        d.emit(0, "x")
        d.emit(5, "y")
        sink = []
        d.commit_range(0, 3, sink.append)
        assert sink == ["x"] and d.pending() == 1

    def test_squash_discards_speculative_output(self):
        d = DeferredOutput()
        d.emit(1, "keep")
        d.emit(7, "squash")
        d.squash_from(5)
        sink = []
        d.commit_range(0, 10, sink.append)
        assert sink == ["keep"]


@pytest.fixture
def harness():
    """A tiny transformed program + runtime, paused before the loop."""
    from repro.bench.pipeline import prepare

    src = """
    int scratch[8];
    int out[64];
    long total;
    int main(int n) {
        for (int i = 0; i < n; i++) {
            for (int j = 0; j < 8; j++) { scratch[j] = i + j; }
            int acc = 0;
            for (int j = 0; j < 8; j++) { acc = acc + scratch[j]; }
            out[i] = acc;
            total += acc;
            printf("%d\\n", acc);
        }
        printf("%ld\\n", total);
        return 0;
    }
    """
    return prepare(src, "harness", args=(16,))


class TestHeapPlacement:
    def test_globals_land_in_their_heaps(self, harness):
        from repro.parallel.executor import DOALLExecutor

        ex = DOALLExecutor(harness.module, harness.plan, workers=2)
        interp = ex.interp
        tags = {
            name: heap_tag_of(interp.global_addrs[harness.module.global_named(name)])
            for name in ("scratch", "out", "total")
        }
        assert tags["scratch"] == int(HeapKind.PRIVATE)
        assert tags["out"] == int(HeapKind.PRIVATE)
        assert tags["total"] == int(HeapKind.REDUX)

    def test_h_alloc_places_by_kind(self, harness):
        from repro.parallel.executor import DOALLExecutor

        ex = DOALLExecutor(harness.module, harness.plan, workers=2)
        impl = ex.interp.intrinsics["h_alloc"]

        class FakeInst:
            meta = {}

            def site_id(self):
                return "fake:1"

        addr = impl(ex.interp, FakeInst(), [64, int(HeapKind.SHORTLIVED)])
        assert heap_tag_of(addr) == int(HeapKind.SHORTLIVED)


class TestEndToEndRuntime:
    def test_output_matches_sequential(self, harness):
        result = harness.execute(workers=4)
        assert result.output == harness.sequential.output
        assert result.runtime_stats.misspec_count() == 0

    def test_reduction_merged_correctly(self, harness):
        result = harness.execute(workers=6)
        # final total printed after loop must match sequential
        assert result.output[-1] == harness.sequential.output[-1]

    def test_io_deferred_and_committed(self, harness):
        result = harness.execute(workers=4)
        stats = result.runtime_stats
        assert stats.io_deferred == 16  # one line per iteration
        # ...and they came out in iteration order:
        assert result.output[:-1] == harness.sequential.output[:-1]

    def test_checkpoints_taken(self, harness):
        result = harness.execute(workers=4, checkpoint_period=4)
        assert result.runtime_stats.checkpoints == 4

    def test_privacy_byte_counters(self, harness):
        result = harness.execute(workers=2)
        stats = result.runtime_stats
        assert stats.private_write_bytes > 0
        assert stats.private_read_bytes > 0

    def test_worker_count_does_not_change_results(self, harness):
        outs = {w: harness.execute(workers=w).output for w in (1, 3, 8)}
        assert outs[1] == outs[3] == outs[8] == harness.sequential.output

    def test_readonly_protection_restored_between_invocations(self):
        # Two invocations of a loop that reads a read-only global which is
        # rewritten between invocations (legal: outside the region).
        from repro.bench.pipeline import prepare

        src = """
        int cfg[4];
        int out[64];
        void pass(int n, int bias) {
            for (int i = 0; i < n; i++) {
                out[i] = cfg[i % 4] + bias;
                for (int j = 0; j < 10; j++) { out[i] += j; }
            }
        }
        int main(int n) {
            for (int k = 0; k < 4; k++) { cfg[k] = k; }
            pass(n, 0);
            for (int k = 0; k < 4; k++) { cfg[k] = k * 100; }
            pass(n, 1);
            printf("%d %d\\n", out[0], out[5]);
            return 0;
        }
        """
        prog = prepare(src, "two_invocations", args=(16,))
        result = prog.execute(workers=4)
        assert result.output == prog.sequential.output
        assert result.runtime_stats.invocations == 2
        assert result.runtime_stats.misspec_count() == 0


class TestPrivateHeapExtent:
    """The separation check bounds a private offset by the heap's extent:
    an address in a higher-tagged heap is not a (huge) private offset."""

    @pytest.fixture(scope="class")
    def alvinn(self):
        # With 2 epochs profiling selects the epoch loop, whose value
        # predictions name globals outside the private heap.
        from repro.bench.pipeline import prepare
        from repro.workloads import BY_NAME

        w = BY_NAME["alvinn"]
        return prepare(w.source, "alvinn", args=(6, 2, 12345),
                       use_cache=False)

    @pytest.mark.parametrize("backend", ["simulated", "pool"])
    def test_alvinn_two_epochs_matches_sequential(self, alvinn, backend):
        result = alvinn.execute(workers=2, backend=backend)
        assert result.output == alvinn.sequential.output
        assert result.return_value == alvinn.sequential.return_value

    @pytest.mark.parametrize("intrinsic", ["private_read", "private_write"])
    def test_access_in_higher_heap_is_a_separation_misspec(self, harness,
                                                           intrinsic):
        from repro.interp import Interpreter
        from repro.runtime.system import RuntimeSystem, WorkerState

        interp = Interpreter(harness.module)
        runtime = RuntimeSystem(harness.module, harness.plan, interp)
        runtime.speculating = True
        runtime.current_worker = WorkerState(0, interp.space, 64)
        addr = HeapKind.REDUX.base + 8
        with pytest.raises(Misspeculation) as info:
            interp.intrinsics[intrinsic](interp, None, (addr, 4))
        assert info.value.kind == "separation"
