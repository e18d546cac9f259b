/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot components:
 * assembler throughput, functional executor IPS, DRAM-model event rate,
 * and end-to-end simulated-vs-wall-clock ratio for a small kernel. These
 * guard the simulator's own performance (simulation speed is a feature:
 * the evaluation sweeps run hundreds of kernel launches).
 */

#include <benchmark/benchmark.h>

#include "dram/dram.hh"
#include "isa/assembler.hh"
#include "isa/executor.hh"
#include "system/system.hh"

namespace {

using namespace m2ndp;

const char *kKernel = R"(
    vsetvli x0, x0, e32, m1
    li  x3, %args
    ld  x4, 0(x3)
    vle32.v v1, (x1)
    vadd.vx v2, v1, x2
    add x5, x4, x2
    vse32.v v2, (x5)
)";

void
BM_Assembler(benchmark::State &state)
{
    isa::Assembler as;
    std::string error;
    for (auto _ : state) {
        auto k = as.assemble(kKernel, error);
        benchmark::DoNotOptimize(k);
    }
}
BENCHMARK(BM_Assembler);

class BenchMem : public isa::MemoryIf
{
  public:
    void read(Addr va, void *out, unsigned size) override
    {
        mem.read(va, out, size);
    }
    void write(Addr va, const void *in, unsigned size) override
    {
        mem.write(va, in, size);
    }
    std::uint64_t amo(AmoOp op, Addr va, std::uint64_t operand,
                      unsigned width) override
    {
        return amoExecute(mem, op, va, operand, width);
    }
    SparseMemory mem;
};

void
BM_ExecutorLoop(benchmark::State &state)
{
    isa::Assembler as;
    std::string error;
    auto k = as.assemble(R"(
        li x3, 256
        li x4, 0
    loop:
        addi x4, x4, 3
        addi x3, x3, -1
        bne x3, x0, loop
    )", error);
    M2_ASSERT(error.empty(), error);
    BenchMem mem;
    std::uint64_t instructions = 0;
    for (auto _ : state) {
        isa::UthreadContext ctx;
        instructions += isa::runToCompletion(ctx, k.sections[0], mem);
    }
    state.counters["MIPS"] = benchmark::Counter(
        static_cast<double>(instructions) / 1e6,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ExecutorLoop);

void
BM_DramStream(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        DramDevice dram(eq, DramTiming::lpddr5(), 32);
        unsigned n = 4096;
        for (unsigned i = 0; i < n; ++i) {
            auto pkt = MemPacketPtr(MemPacketPool::alloc());
            pkt->op = MemOp::Read;
            pkt->addr = static_cast<Addr>(i) * 32;
            pkt->size = 32;
            dram.receive(std::move(pkt), eq.now());
        }
        eq.run();
        benchmark::DoNotOptimize(dram.totalStats().reads);
    }
}
BENCHMARK(BM_DramStream);

void
BM_EndToEndKernel(benchmark::State &state)
{
    for (auto _ : state) {
        SystemConfig cfg;
        System sys(cfg);
        auto &proc = sys.createProcess();
        auto rt = sys.createRuntime(proc);
        KernelResources res;
        res.num_int_regs = 6;
        res.num_vector_regs = 3;
        std::int64_t kid = rt->registerKernel(kKernel, res);
        M2_ASSERT(kid > 0, "kernel registration failed");
        Addr a = proc.allocate(64 * kKiB);
        Addr c = proc.allocate(64 * kKiB);
        rt->launchKernelSync(
            LaunchDesc(kid, a, a + 64 * kKiB).arg(c));
        benchmark::DoNotOptimize(sys.eq().now());
    }
}
BENCHMARK(BM_EndToEndKernel)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
