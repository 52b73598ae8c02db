"""§5: static in-place events vs dynamic (KernInst-style) probes.

Paper claim: "even KernInst, which is targeted at kernel
instrumentation, has higher overheads than the facility described here.
This overhead is due in part to the flexible and dynamic nature of
KernInst requiring springboard and overwrite instructions. ... for
kernel developers tuning their own code, the ease with which trace
events can be added and the efficiency with which they operate will
continue to make them the mode of choice" — while dynamic tools remain
"necessary when attempting to start monitoring in unanticipated ways an
already installed and running machine".

Reproduction: the same hot function monitored three ways — uninstrumented,
via the compiled-in static event, via a dynamic probe — with per-hit
overhead compared; plus the dynamic tool's unique capability (attaching
to a live, running system) demonstrated.
"""


from repro.core.facility import TraceFacility
from repro.core.majors import Major
from repro.ksim import Compute, Kernel, KernelConfig
from result_tables import write_result

HITS = 200


def build(static_event: bool, probe: bool):
    kernel = Kernel(KernelConfig(ncpus=1))
    fac = TraceFacility(ncpus=1, clock=kernel.clock, buffer_words=4096,
                        num_buffers=16)
    fac.enable_all()
    kernel.facility = fac
    if probe:
        kernel.probes.attach("kernel::hot_path")

    def prog(api):
        for i in range(HITS):
            if static_event:
                # The compiled-in trace statement on the path.
                cost = kernel.trace(None, Major.TEST, 1, (i,))
                yield Compute(10_000 + cost, pc="kernel::hot_path")
            else:
                yield Compute(10_000, pc="kernel::hot_path")

    kernel.spawn_process(prog, "p")
    assert kernel.run_until_quiescent()
    return kernel


def test_static_events_cheaper_than_dynamic_probes(benchmark):
    base = build(static_event=False, probe=False).engine.now
    static = build(static_event=True, probe=False).engine.now
    probed = build(static_event=False, probe=True).engine.now

    static_per_hit = (static - base) / HITS
    probe_per_hit = (probed - base) / HITS
    ratio = probe_per_hit / static_per_hit
    write_result(
        "probes_vs_static",
        f"monitoring one hot function, {HITS} entries (cycles/hit)\n"
        f"{'uninstrumented':>16}: baseline\n"
        f"{'static event':>16}: +{static_per_hit:.0f} cycles/hit "
        "(the 91+11 compiled-in path)\n"
        f"{'dynamic probe':>16}: +{probe_per_hit:.0f} cycles/hit "
        "(springboard + event)\n"
        f"dynamic/static overhead ratio: {ratio:.1f}x "
        "(paper: KernInst-style insertion has higher overheads)",
    )
    assert 80 <= static_per_hit <= 130          # ~the 91+11 cost
    assert ratio > 3, "probes must cost several times the static event"
    benchmark(lambda: build(static_event=True, probe=False))


def test_dynamic_probe_on_live_system(benchmark):
    """The §5 counterpoint: only the dynamic tool can start monitoring a
    system that is already running."""
    kernel = Kernel(KernelConfig(ncpus=1))
    fac = TraceFacility(ncpus=1, clock=kernel.clock, buffer_words=4096,
                        num_buffers=16)
    fac.enable_all()
    kernel.facility = fac

    def prog(api):
        for i in range(100):
            yield Compute(10_000, pc="kernel::hot_path")

    kernel.spawn_process(prog, "p")
    kernel.run(until=400_000)                    # system is live...
    probe = kernel.probes.attach("kernel::hot_path")  # ...attach now
    assert kernel.run_until_quiescent()
    write_result(
        "probes_live_attach",
        f"probe attached at cycle 400,000 into a running system;\n"
        f"caught {probe.hits} of 100 entries (the ones after attach)",
    )
    assert 0 < probe.hits < 100

    def attach_detach():
        p = kernel.probes.attach("kernel::some_path")
        kernel.probes.detach(p)

    benchmark(attach_detach)
