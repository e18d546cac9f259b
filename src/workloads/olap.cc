#include "workloads/olap.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/rng.hh"

namespace m2ndp::workloads {

namespace {

/**
 * Predicate-evaluate kernel: AND a range predicate over 8 int32 values
 * into the byte mask. args: [0]=mask base, [8]=lo, [16]=hi.
 * The uthread pool region is the column itself (Fig. 4 style).
 */
const char *kEvaluateKernel = R"(
    .name olap_evaluate
    li   x3, %args
    ld   x4, 0(x3)         # mask base
    ld   x5, 8(x3)         # lo
    ld   x6, 16(x3)        # hi
    vsetvli x0, x0, e32, m1
    vle32.v v1, (x1)
    vmsge.vx v0, v1, x5
    vmslt.vx v2, v1, x6
    vmand.mm v0, v0, v2
    # byte mask: 1 where predicate holds, ANDed with the running mask
    li   x7, 8
    vsetvli x0, x7, e8, m1
    vmv.v.i v3, 0
    vmerge.vim v3, v3, 1, v0
    srli x8, x2, 2         # one mask byte per int32 element
    add  x8, x4, x8
    vle8.v v4, (x8)
    vand.vv v3, v3, v4
    vse8.v v3, (x8)
)";

} // namespace

OlapQuery
OlapQuery::tpchQ6()
{
    // lineitem: shipdate within a year, discount in a band, quantity < 24.
    return OlapQuery{"TPC-H Q6",
                     {{"shipdate", 1500, 2900},
                      {"discount", 500, 800},
                      {"quantity", 0, 2400}}};
}

OlapQuery
OlapQuery::tpchQ14()
{
    // shipdate within one month.
    return OlapQuery{"TPC-H Q14", {{"shipdate", 1500, 1620}}};
}

OlapQuery
OlapQuery::ssbQ1_1()
{
    return OlapQuery{"SSB Q1.1",
                     {{"orderdate", 1000, 2400},
                      {"discount", 100, 400},
                      {"quantity", 0, 2500}}};
}

OlapQuery
OlapQuery::ssbQ1_2()
{
    return OlapQuery{"SSB Q1.2",
                     {{"orderdate", 1200, 1320},
                      {"discount", 400, 700},
                      {"quantity", 2600, 3600}}};
}

OlapQuery
OlapQuery::ssbQ1_3()
{
    return OlapQuery{"SSB Q1.3",
                     {{"orderdate", 1250, 1270},
                      {"discount", 500, 800},
                      {"quantity", 2600, 3600}}};
}

std::vector<OlapQuery>
OlapQuery::all()
{
    return {tpchQ14(), tpchQ6(), ssbQ1_1(), ssbQ1_2(), ssbQ1_3()};
}

OlapWorkload::OlapWorkload(System &sys, ProcessAddressSpace &proc,
                           std::uint64_t rows)
    : sys_(sys), proc_(proc), rows_(alignUp(rows, 8))
{
}

void
OlapWorkload::setup()
{
    Rng rng(31);
    const char *names[] = {"shipdate", "orderdate", "discount", "quantity",
                           "extendedprice"};
    for (const char *name : names) {
        std::vector<std::int32_t> col(rows_);
        for (auto &v : col)
            v = static_cast<std::int32_t>(rng.nextBounded(10000));
        Addr va = uploadArray(sys_, proc_, col);
        columns_.emplace_back(name, va);
        host_columns_.emplace_back(name, std::move(col));
    }
    mask_va_ = proc_.allocate(rows_ + 64);
}

Addr
OlapWorkload::columnVa(const std::string &name) const
{
    for (const auto &[n, va] : columns_) {
        if (n == name)
            return va;
    }
    M2_FATAL("unknown OLAP column ", name);
}

OlapRunBreakdown
OlapWorkload::runNdp(NdpRuntime &rt, const OlapQuery &q, bool *verified)
{
    KernelResources res;
    res.num_int_regs = 9;
    res.num_vector_regs = 5;
    std::int64_t kid = rt.registerKernel(kEvaluateKernel, res);
    M2_ASSERT(kid > 0, "evaluate kernel registration failed");

    // Host initializes the mask to all-ones (modeled as part of Etc).
    std::vector<std::uint8_t> ones(rows_, 1);
    sys_.writeVirtual(proc_, mask_va_, ones.data(), rows_);

    Tick start = sys_.eq().now();
    for (const auto &p : q.predicates) {
        Addr col = columnVa(p.column);
        std::int64_t iid = rt.launchKernelSync(
            makeLaunch(kid, col, col + rows_ * 4,
                       {mask_va_, static_cast<std::uint64_t>(p.lo),
                        static_cast<std::uint64_t>(p.hi)}));
        M2_ASSERT(iid > 0, "evaluate launch failed");
    }
    OlapRunBreakdown b;
    b.evaluate = sys_.eq().now() - start;
    b.filter = filterPhase(q);
    b.etc = etcPhase();

    if (verified != nullptr) {
        auto mask = downloadArray<std::uint8_t>(sys_, proc_, mask_va_,
                                                rows_);
        *verified = true;
        for (std::uint64_t i = 0; i < rows_ && *verified; ++i) {
            bool keep = true;
            for (const auto &p : q.predicates) {
                for (const auto &[n, col] : host_columns_) {
                    if (n == p.column) {
                        keep = keep && col[i] >= p.lo && col[i] < p.hi;
                        break;
                    }
                }
            }
            if (mask[i] != (keep ? 1 : 0))
                *verified = false;
        }
    }
    return b;
}

std::uint64_t
OlapWorkload::evaluateBytes(const OlapQuery &q) const
{
    // Column reads plus mask read-modify-write per predicate.
    return q.predicates.size() * (rows_ * 4 + 2 * rows_);
}

double
OlapWorkload::maskSelectivity(const OlapQuery &q) const
{
    double sel = 1.0;
    for (const auto &p : q.predicates)
        sel *= std::min(1.0, (p.hi - p.lo) / 10000.0);
    return sel;
}

Tick
OlapWorkload::evaluateBaseline(const OlapQuery &q, const CpuConfig &c) const
{
    // Polars evaluates each filter expression on one thread per query
    // chunk, so the paper's baseline is latency-bound on CXL: one
    // thread's misses cannot fill the link. One pass per predicate column.
    Tick total = 0;
    for (std::size_t i = 0; i < q.predicates.size(); ++i) {
        auto r = cpuScan(c, rows_ * 4 + 2 * rows_, 1, rows_);
        total += r.runtime;
    }
    return total;
}

Tick
OlapWorkload::filterPhase(const OlapQuery &q) const
{
    // Materialize selected rows of the payload column on the host: a mask
    // scan plus selective reads over CXL. Polars materializes per chunk
    // with limited parallelism (2 effective threads; Fig. 10a's baseline
    // bars show Filter at roughly 1/6 of Evaluate).
    double sel = maskSelectivity(q);
    auto c = CpuConfig::hostOverCxl();
    std::uint64_t bytes =
        rows_ + static_cast<std::uint64_t>(sel * rows_ * 8);
    return cpuScan(c, bytes, 2, rows_).runtime;
}

Tick
OlapWorkload::etcPhase() const
{
    // Query planning, aggregation of the filtered column, result
    // materialization: small, host-local.
    return 120 * kUs / 100; // 1.2 us
}

Tick
OlapWorkload::evaluateIdeal(const OlapQuery &q, double peak_gbps) const
{
    return static_cast<Tick>(static_cast<double>(evaluateBytes(q)) /
                             (peak_gbps * 1e9) * 1e12);
}

} // namespace m2ndp::workloads
