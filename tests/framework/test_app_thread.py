"""Focused tests for the AppThread lifecycle and transfer-mutex semantics."""

import pytest

from repro.apps.registry import get_app
from repro.framework.app_thread import AppContext, AppThread
from repro.framework.metrics import AppRecord
from repro.framework.stream import Stream
from repro.framework.sync import NullSynchronizer, TransferSynchronizer
from repro.gpu.commands import CopyDirection
from repro.gpu.device import GPUDevice
from repro.sim.engine import Environment


def make_thread(env, device, kind="nn", sync=None, instance=0, **kwargs):
    defaults = {"nn": {"records": 2048}, "srad": {"n": 64, "iterations": 2}}
    params = {**defaults.get(kind, {}), **kwargs}
    app = get_app(kind, instance=instance, **params)
    record = AppRecord(
        app_id=app.app_id,
        type_name=kind,
        instance=instance,
        stream_index=0,
        launch_index=0,
    )
    sync = sync or NullSynchronizer(env)
    return AppThread(env, device, app, sync, record), record


class TestLifecycle:
    def test_prepare_allocates_device_memory(self, env, device):
        thread, _ = make_thread(env, device)
        assert device.memory.in_use == 0
        env.run(until=env.process(thread.prepare()))
        assert device.memory.in_use > 0
        assert len(thread.ctx.device_allocations) == 2  # nn: locations + distances

    def test_cleanup_frees_device_memory(self, env, device):
        thread, _ = make_thread(env, device)
        env.run(until=env.process(thread.prepare()))
        env.run(until=env.process(thread.cleanup()))
        assert device.memory.in_use == 0
        assert thread.ctx.device_allocations == {}

    def test_run_without_stream_fails(self, env, device):
        thread, _ = make_thread(env, device)
        env.run(until=env.process(thread.prepare()))
        with pytest.raises(RuntimeError, match="no stream"):
            env.run(until=env.process(thread.run()))

    def test_full_lifecycle_records_everything(self, env, device):
        thread, record = make_thread(env, device)
        stream = Stream(env, device.create_stream(), 0)
        env.run(until=env.process(thread.prepare()))
        thread.assign_stream(stream)
        env.run(until=env.process(thread.run()))
        assert record.complete_time > record.gpu_start >= 0
        assert record.transfers and record.kernels
        assert stream.completed_apps == [thread.app.app_id]

    def test_kernel_record_reads_its_command(self, env, device):
        thread, record = make_thread(env, device)
        stream = Stream(env, device.create_stream(), 0)
        env.run(until=env.process(thread.prepare()))
        thread.assign_stream(stream)
        env.run(until=env.process(thread.run()))
        cmd = thread.ctx.kernel_commands[0]
        assert record.kernels[0] == (
            cmd.descriptor.name,
            cmd.descriptor.num_blocks,
            cmd.enqueue_time,
            cmd.started.value,
            cmd.done.value,
            cmd.waves,
        )

    def test_srad_in_loop_transfers_recorded(self, env, device):
        thread, record = make_thread(env, device, kind="srad")
        stream = Stream(env, device.create_stream(), 0)
        env.run(until=env.process(thread.prepare()))
        thread.assign_stream(stream)
        env.run(until=env.process(thread.run()))
        dtoh = record.transfer_events(CopyDirection.DTOH)
        # 2 per-iteration sum readbacks + the final image.
        assert len(dtoh) == 3
        # Kernel launches: 2 per iteration.
        assert len(record.kernels) == 4


class TestMutexSemantics:
    def run_two(self, env, device, sync):
        streams = [Stream(env, device.create_stream(), i) for i in range(2)]
        threads = []
        for i in range(2):
            thread, record = make_thread(env, device, sync=sync, instance=i)
            env.run(until=env.process(thread.prepare()))
            thread.assign_stream(streams[i])
            threads.append((thread, record))
        procs = [env.process(t.run()) for t, _ in threads]
        env.run(until=env.all_of(procs))
        return [r for _, r in threads]

    def test_mutex_holds_span_transfer_completion(self, env, device):
        sync = TransferSynchronizer(env)
        records = self.run_two(env, device, sync)
        assert sync.total_holds == 2
        intervals = sorted(sync.hold_intervals())
        # Disjoint critical sections...
        assert intervals[0][1] <= intervals[1][0]
        # ...and each hold covers its app's full HtoD span.
        for record, (acq, rel) in zip(records, intervals):
            for event in record.transfer_events(CopyDirection.HTOD):
                assert acq <= event.started
                assert event.completed <= rel + 1e-12

    def test_null_sync_does_not_block(self, env, device):
        sync = NullSynchronizer(env)
        records = self.run_two(env, device, sync)
        starts = [r.gpu_start for r in records]
        # Both GPU sections begin immediately (no mutual exclusion).
        assert starts[0] == starts[1]


class TestContext:
    def test_drain_new_transfers_resets(self, env, device):
        ctx = AppContext(
            env=env,
            device=device,
            stream=device.create_stream(),
            host_spec=device.spec.host,
            app_id="x#0",
        )
        cmd = ctx.stream.enqueue_memcpy(CopyDirection.HTOD, 1024, app_id="x#0")
        ctx.note_transfer(cmd)
        assert ctx.drain_new_transfers() == [cmd]
        assert ctx.drain_new_transfers() == []
        # The permanent log keeps everything.
        assert ctx.memcpy_commands == [cmd]
