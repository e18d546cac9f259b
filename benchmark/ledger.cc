/**
 * @file
 * The repository benchmark program ("ledger"). It runs one workload of
 * src/workloads through the public APIs, on engines forced to
 * SystemConfig::threads = 1, and prints one JSON line with the
 * end-to-end metrics (untraced) or the per-layer ledger (traced).
 *
 *   ledger --workload olap_scan|kvs_ycsb_a|serve_open_4dev
 *          --seed N --seconds S --trace 0|1 [--quick] [--spans PATH]
 *
 * A run is a sequence of rounds, repeated until --seconds of timed batch
 * time is spent. A round builds a fresh System, places the inputs and
 * creates the runtimes (the three setup spans), then runs the workload's
 * warm-up batches (untimed) and a fixed number of timed batches. Every
 * batch is checked (masks, response values, typed accounting), and its
 * deterministic model signature must equal the same batch of the first
 * round; any mismatch is a failed operation. With --trace 1 the rounds
 * run twice, untraced and then with spans and the hot-path scopes on,
 * and the two halves must agree bit for bit. README.md in this directory
 * documents the workloads and every metric.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

// Counting operator new for mem.heap_allocs_per_inst. Included by this
// translation unit only (a second inclusion would fail the link).
#include "common/bitutil.hh"
#include "common/counting_new.hh"
#include "common/hotpath_timer.hh"
#include "common/rng.hh"
#include "layers.hh"
#include "mem/page_table.hh"
#include "workloads/kvstore.hh"
#include "workloads/olap.hh"
#include "workloads/traffic.hh"

namespace ledger {
namespace {

using namespace m2ndp;
using namespace m2ndp::workloads;
using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Quantile @p q of @p v, linear between closest ranks. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

// ---------------------------------------------------------------- spans

/** One recorded span: a layer call made from this file. */
struct Span
{
    std::uint32_t id = 0;
    std::uint32_t parent = 0; ///< 0 = root
    const char *name = "";
    double start_s = 0.0; ///< since the tracer's origin
    double dur_s = 0.0;
    /** Hot-path scope ticks inside the span (hotpath::Counters deltas)
     *  and the span's own length in the same timebase. */
    std::uint64_t issue = 0;
    std::uint64_t fill = 0;
    std::uint64_t functional = 0;
    std::uint64_t ticks = 0;
};

/**
 * In-memory span log. Spans are stored only while `on`; scopes time
 * themselves either way, because setup_s is measured untraced too.
 */
class Tracer
{
  public:
    Tracer() : origin_(Clock::now()) { spans_.reserve(4096); }

    bool on = false;

    /** Write the spans as Chrome trace-event JSON. */
    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        std::fputs("{\"traceEvents\": [\n", f);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(
                f,
                "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1,"
                " \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %u,"
                " \"parent\": %u, \"issue_ticks\": %llu, \"fill_ticks\":"
                " %llu, \"functional_ticks\": %llu, \"span_ticks\": %llu}}"
                "%s\n",
                s.name, s.start_s * 1e6, s.dur_s * 1e6, s.id, s.parent,
                static_cast<unsigned long long>(s.issue),
                static_cast<unsigned long long>(s.fill),
                static_cast<unsigned long long>(s.functional),
                static_cast<unsigned long long>(s.ticks),
                i + 1 < spans_.size() ? "," : "");
        }
        std::fputs("]}\n", f);
        return std::fclose(f) == 0;
    }

  private:
    friend class SpanScope;

    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::uint32_t next_id_ = 0;
    std::uint32_t current_ = 0;
};

/** RAII span around one call into a layer. */
class SpanScope
{
  public:
    SpanScope(Tracer &tr, const char *name)
        : tr_(tr), parent_(tr.current_)
    {
        span_.name = name;
        if (tr_.on) {
            span_.id = ++tr_.next_id_;
            span_.parent = parent_;
            tr_.current_ = span_.id;
            issue0_ = hotpath::g.issue;
            fill0_ = hotpath::g.fill;
            functional0_ = hotpath::g.functional;
            ticks0_ = hotpath::nowTicks();
        }
        t0_ = Clock::now();
    }

    ~SpanScope() { close(); }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    /** End the span (idempotent); @return its duration in seconds. */
    double
    close()
    {
        if (closed_)
            return span_.dur_s;
        Clock::time_point t1 = Clock::now();
        closed_ = true;
        span_.dur_s = secondsBetween(t0_, t1);
        if (tr_.on) {
            span_.ticks = hotpath::nowTicks() - ticks0_;
            span_.issue = hotpath::g.issue - issue0_;
            span_.fill = hotpath::g.fill - fill0_;
            span_.functional = hotpath::g.functional - functional0_;
            span_.start_s = secondsBetween(tr_.origin_, t0_);
            tr_.spans_.push_back(span_);
            tr_.current_ = parent_;
        }
        return span_.dur_s;
    }

    const Span &span() const { return span_; }

  private:
    Tracer &tr_;
    std::uint32_t parent_;
    Span span_;
    bool closed_ = false;
    Clock::time_point t0_;
    std::uint64_t issue0_ = 0;
    std::uint64_t fill0_ = 0;
    std::uint64_t functional0_ = 0;
    std::uint64_t ticks0_ = 0;
};

// ------------------------------------------------------------ workloads

SystemConfig
systemConfig(unsigned devices, bool faults = false)
{
    SystemConfig cfg;
    cfg.num_devices = devices;
    if (faults) {
        // The overload point of bench/fig16_open_loop.cc (Fig. 16c).
        cfg.fault.enabled = true;
        cfg.fault.bit_error_rate = 1e-4;
    }
    cfg.link = SystemConfig::linkForLoadToUse(150 * kNs); // Table IV
    // The benchmark measures the simulator, not the scheduler: one
    // executor whatever M2NDP_THREADS says.
    cfg.threads = 1;
    return cfg;
}

/** Setup phase durations of one round (seconds). */
struct SetupTimes
{
    double system = 0.0;
    double data = 0.0;
    double runtime = 0.0;

    double total() const { return system + data + runtime; }
};

/** What one batch did, as the model sees it (deterministic). */
struct BatchResult
{
    std::uint64_t ops = 0;    ///< operations attempted
    std::uint64_t failed = 0; ///< failed verification / lost accounting
    double instructions = 0.0;
    double events = 0.0;
    Tick sim_ticks = 0;
    std::uint64_t checksum = 0; ///< System::engineChecksum() after
    double p50_ns = 0.0;
    double p99_ns = 0.0;
    double goodput_mrps = 0.0; ///< work items per simulated us
    std::uint64_t launches = 0;
    std::uint64_t rejected = 0;
    std::uint64_t shed = 0;
    std::uint64_t faulted = 0;
    Counters layers; ///< counter delta over the batch

    /** Same simulated outcome: every layer counter and model value. */
    bool
    sameModel(const BatchResult &o) const
    {
        return ops == o.ops && failed == o.failed && checksum == o.checksum &&
               p50_ns == o.p50_ns && p99_ns == o.p99_ns &&
               goodput_mrps == o.goodput_mrps && launches == o.launches &&
               rejected == o.rejected && shed == o.shed &&
               faulted == o.faulted && layers == o.layers;
    }
};

/** One benchmark workload: a fresh System per round, then batches. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Span name of a timed batch. */
    virtual const char *batchSpan() const = 0;
    /** Untimed batches at the start of every round. */
    virtual unsigned warmupBatches() const = 0;
    /**
     * Timed batches per round. Fixed, so a round is the same work at
     * any host speed (and so is the memory it leaves behind).
     */
    virtual unsigned timedBatches() const = 0;
    /** Untimed whole rounds at the start of a phase. */
    virtual unsigned warmupRounds() const { return 0; }
    /** Setups to time per run (extra setup-only rounds if needed). */
    virtual unsigned setupSamples() const = 0;

    /** Build the System, place the inputs, create the runtimes. */
    virtual SetupTimes setup(Tracer &tr) = 0;
    /** Drive batch @p index on the simulator (the timed part). */
    virtual void run(unsigned index) = 0;
    /** Check batch @p index's outputs and fill its model values. */
    virtual void check(unsigned index, BatchResult &r) = 0;
    virtual void teardown() = 0;

    virtual System &system() = 0;
    virtual std::vector<const NdpRuntime *> runtimes() const { return {}; }
};

/**
 * Shared shape of olap_scan and kvs_ycsb_a: one device, one process, one
 * runtime, and a src/workloads object @p W whose setup() places the data.
 */
template <typename W>
class SingleDevice : public Workload
{
  public:
    SetupTimes
    setup(Tracer &tr) override
    {
        SetupTimes t;
        {
            SpanScope s(tr, "setup.system");
            sys_ = std::make_unique<System>(systemConfig(1));
            proc_ = &sys_->createProcess();
            t.system = s.close();
        }
        {
            SpanScope s(tr, "setup.data");
            work_ = makeWork(*sys_, *proc_);
            work_->setup();
            t.data = s.close();
        }
        // The VA allocator maps the heap contiguously from kHeapVaBase;
        // the runtime allocates its own pages after the workload's.
        data_end_ = layout::kHeapVaBase;
        while (proc_->translate(data_end_))
            data_end_ += proc_->pageTable().pageSize();
        {
            SpanScope s(tr, "setup.runtime");
            rt_ = sys_->createRuntime(*proc_);
            t.runtime = s.close();
        }
        return t;
    }

    void
    teardown() override
    {
        rt_.reset();
        work_.reset();
        sys_.reset();
    }

    System &system() override { return *sys_; }

    std::vector<const NdpRuntime *>
    runtimes() const override
    {
        return {rt_.get()};
    }

  protected:
    virtual std::unique_ptr<W> makeWork(System &sys,
                                        ProcessAddressSpace &proc) = 0;

    std::unique_ptr<System> sys_;
    ProcessAddressSpace *proc_ = nullptr;
    std::unique_ptr<W> work_;
    std::unique_ptr<NdpRuntime> rt_;
    Addr data_end_ = 0; ///< end of the pages work_->setup() allocated
};

/**
 * olap_scan: TPC-H Q6 / SSB Q1.x predicate evaluation over int32
 * columns larger than the device's total L2, one device. A batch is one
 * predicate of those queries (one evaluate kernel over a whole column;
 * the mask is reset per batch), so batches are short enough to take a
 * robust statistic over. The seed places the predicate windows; the
 * column data is generated inside OlapWorkload::setup() from a fixed
 * seed.
 */
class OlapScan : public SingleDevice<OlapWorkload>
{
  public:
    OlapScan(std::uint64_t seed, bool quick)
        : rows_(quick ? 64 * 1024 : 1'179'648) // 4.5 MiB per column
    {
        // Keep each named query's columns and window widths (so its
        // selectivity shape) and let the seed place the windows. The
        // one-predicate TPC-H Q14 is the warm-up query.
        Rng rng(seed ^ 0x0a1a9ull);
        for (OlapQuery q : {OlapQuery::tpchQ14(), OlapQuery::tpchQ6(),
                            OlapQuery::ssbQ1_1(), OlapQuery::ssbQ1_2(),
                            OlapQuery::ssbQ1_3()}) {
            for (Predicate p : q.predicates) {
                std::int32_t width = p.hi - p.lo;
                p.lo = static_cast<std::int32_t>(
                    rng.nextBounded(static_cast<std::uint64_t>(
                        10000 - width + 1)));
                p.hi = p.lo + width;
                queries_.push_back(OlapQuery{q.name + " " + p.column, {p}});
            }
        }
        // A full round times every predicate after the warm-up once.
        timed_ = quick ? 2 : static_cast<unsigned>(queries_.size() - 1);
    }

    const char *batchSpan() const override { return "run.query"; }
    unsigned warmupBatches() const override { return 1; }
    unsigned timedBatches() const override { return timed_; }
    unsigned setupSamples() const override { return 30; }

    void
    run(unsigned index) override
    {
        // OlapWorkload::runNdp checks the mask against its host
        // reference in the same call, so every query is verified.
        verified_ = false;
        evaluate_ = work_->runNdp(*rt_, query(index), &verified_).evaluate;
    }

    void
    check(unsigned, BatchResult &r) override
    {
        r.ops = 1;
        r.failed = verified_ ? 0 : 1;
        r.p50_ns = r.p99_ns = static_cast<double>(evaluate_) / kNs;
        // Rows evaluated per simulated microsecond (= Mrows/s).
        r.goodput_mrps = ratio(static_cast<double>(rows_),
                               static_cast<double>(evaluate_) / kUs);
    }

  private:
    std::unique_ptr<OlapWorkload>
    makeWork(System &sys, ProcessAddressSpace &proc) override
    {
        return std::make_unique<OlapWorkload>(sys, proc, rows_);
    }

    /** Batch 0 is the warm-up query; the rest run the others in turn. */
    const OlapQuery &
    query(unsigned index) const
    {
        return index == 0
                   ? queries_[0]
                   : queries_[1 + (index - 1) % (queries_.size() - 1)];
    }

    std::uint64_t rows_;
    unsigned timed_ = 0;
    std::vector<OlapQuery> queries_;
    Tick evaluate_ = 0;
    bool verified_ = false;
};

/**
 * kvs_ycsb_a: YCSB-A (50% GET / 50% SET, Zipf 0.99) over a chained hash
 * table of 1 M items (128 MiB of nodes), closed loop with the workload's
 * 16-request window, one device. A batch replays the seeded trace into
 * the same response slots, so check() clears them after reading: each
 * batch's sampled-GET check then sees only what that batch wrote.
 */
class KvsYcsbA : public SingleDevice<KvstoreWorkload>
{
  public:
    KvsYcsbA(std::uint64_t seed, bool quick) : timed_(quick ? 2 : 16)
    {
        cfg_.num_items = quick ? 1 << 16 : 1'000'000;
        cfg_.num_buckets = quick ? 1 << 15 : 1 << 19;
        cfg_.num_requests = quick ? 2000 : 10'000;
        cfg_.get_fraction = 0.5;
        cfg_.arrival_rate = 0.0; // closed loop
        cfg_.seed = seed;
    }

    const char *batchSpan() const override { return "run.batch"; }
    unsigned warmupBatches() const override { return 1; }
    unsigned timedBatches() const override { return timed_; }
    unsigned setupSamples() const override { return 10; }

    void run(unsigned) override { result_ = work_->runNdp(*rt_); }

    void
    check(unsigned, BatchResult &r) override
    {
        r.ops = cfg_.num_requests;
        // Requests that did not complete, or the whole batch when the
        // sampled GET responses carry the wrong value.
        r.failed = result_.verified
                       ? cfg_.num_requests - std::min<std::uint64_t>(
                                                 result_.completed,
                                                 cfg_.num_requests)
                       : cfg_.num_requests;
        r.p50_ns = result_.latency_ns.percentile(50);
        r.p99_ns = result_.latency_ns.percentile(99);
        r.goodput_mrps = result_.throughput_rps / 1e6;
        clearResponses();
    }

  private:
    /** Response slot size of KvstoreWorkload (kSlotBytes, kvstore.cc). */
    static constexpr std::uint64_t kSlotBytes = 128;

    /**
     * Zero the response slots. KvstoreWorkload::setup() allocates them
     * last, so they fill the last pages before data_end_.
     */
    void
    clearResponses()
    {
        const std::uint64_t bytes =
            alignUp(cfg_.num_requests * kSlotBytes + 64,
                    proc_->pageTable().pageSize());
        zeros_.resize(bytes);
        sys_->writeVirtual(*proc_, data_end_ - bytes, zeros_.data(), bytes);
    }

    std::unique_ptr<KvstoreWorkload>
    makeWork(System &sys, ProcessAddressSpace &proc) override
    {
        return std::make_unique<KvstoreWorkload>(sys, proc, cfg_);
    }

    unsigned timed_;
    KvstoreConfig cfg_;
    KvstoreResult result_;
    std::vector<std::uint8_t> zeros_;
};

/**
 * serve_open_4dev: TrafficHarness with open-loop Poisson arrivals from
 * four tenants on four expanders, at the overload point of
 * bench/fig16_open_loop.cc and bench/micro_sim_throughput.cc, scaled to
 * the four-device knee. Tenant 0 is the bursty batch tenant of Fig. 16c
 * (twice the knee, 16-request bursts into 8-deep queues, 4 us deadline,
 * Retry behind a token bucket, link faults on); tenants 1-3 are the
 * latency tenant of Fig. 16b (16 streams, an eighth of the knee, 100 us
 * deadline), with WRR weights 2-4. Tenant 0 overruns its queues, so
 * admission control rejects. Each round is one harness run on a fresh
 * System: the harness creates its own processes and runtimes in run().
 */
class ServeOpen4Dev : public Workload
{
  public:
    /**
     * Knee of a four-device System: the highest offered load of the
     * Fig. 16a grid whose goodput keeps up with no rejection or shed,
     * measured with fig16's base tenant (4 x 2000 requests). The same
     * sweep on one device gives fig16's 128 Mreq/s.
     */
    static constexpr double kKnee = 256e6;

    ServeOpen4Dev(std::uint64_t seed, bool quick)
    {
        cfg_.seed = seed;
        const unsigned batch = quick ? 1000 : 4000; // tenant 0's requests
        auto tenant = [](double rate, unsigned requests) {
            TrafficTenantConfig t; // fig16's baseTenant
            t.streams = 64;
            t.requests = requests;
            t.arrival_rate = rate;
            t.get_fraction = 0.9;
            t.large_fraction = 0.25;
            t.queue_limit = 16;
            t.policy = StreamPolicy::SkipAndContinue;
            return t;
        };
        TrafficTenantConfig lo = tenant(2.0 * kKnee, batch);
        lo.weight = 1;
        lo.queue_limit = 8;
        lo.deadline = 4 * kUs;
        lo.burst_prob = 0.05;
        lo.burst_size = 16;
        lo.policy = StreamPolicy::Retry;
        lo.retry_backoff = 2 * kUs;
        lo.rate_limit = 3.0 * kKnee;
        lo.rate_burst = 64;
        cfg_.tenants.push_back(lo);
        for (unsigned weight = 2; weight <= 4; ++weight) {
            TrafficTenantConfig hi = tenant(kKnee / 8.0, batch / 4);
            hi.streams = 16;
            hi.weight = weight;
            hi.deadline = 100 * kUs;
            cfg_.tenants.push_back(hi);
        }
    }

    const char *batchSpan() const override { return "run.batch"; }
    unsigned warmupBatches() const override { return 0; }
    unsigned timedBatches() const override { return 1; }
    unsigned warmupRounds() const override { return 3; }
    unsigned setupSamples() const override { return 0; }

    SetupTimes
    setup(Tracer &tr) override
    {
        SpanScope s(tr, "setup.system");
        sys_ = std::make_unique<System>(systemConfig(4, true));
        SetupTimes t;
        t.system = s.close();
        return t;
    }

    void
    run(unsigned) override
    {
        TrafficHarness h(*sys_, cfg_);
        result_ = h.run();
    }

    void
    check(unsigned, BatchResult &r) override
    {
        r.ops = result_.offered;
        std::uint64_t accounted = result_.completed + result_.rejected +
                                  result_.shed + result_.faulted;
        std::uint64_t expected = 0;
        for (const TrafficTenantConfig &t : cfg_.tenants)
            expected += t.requests;
        r.failed = accounted == result_.offered && expected == result_.offered
                       ? 0
                       : result_.offered;
        r.p50_ns = static_cast<double>(result_.latency.p50());
        r.p99_ns = static_cast<double>(result_.latency.p99());
        r.goodput_mrps = result_.goodput_rps / 1e6;
        r.launches = result_.offered; // one stream launch per request
        r.rejected = result_.rejected;
        r.shed = result_.shed;
        r.faulted = result_.faulted;
        if (!reported_) {
            // Where the mix sits: each tenant's outcome shares, once.
            reported_ = true;
            std::fprintf(stderr, "serve_open_4dev: offered %.1f Mreq/s, "
                         "goodput %.1f Mreq/s\n", result_.offered_rps / 1e6,
                         result_.goodput_rps / 1e6);
            for (std::size_t i = 0; i < result_.tenants.size(); ++i) {
                const TrafficTenantResult &t = result_.tenants[i];
                const double n = static_cast<double>(t.offered);
                std::fprintf(stderr, "  tenant %zu: offered %llu, "
                             "rejected %.1f%%, shed %.1f%%, faulted %.1f%%"
                             ", p99 %llu ns\n", i,
                             static_cast<unsigned long long>(t.offered),
                             100.0 * ratio(t.rejected, n),
                             100.0 * ratio(t.shed, n),
                             100.0 * ratio(t.faulted, n),
                             static_cast<unsigned long long>(
                                 t.latency.p99()));
            }
        }
    }

    void teardown() override { sys_.reset(); }

    System &system() override { return *sys_; }

  private:
    TrafficConfig cfg_;
    std::unique_ptr<System> sys_;
    TrafficResult result_;
    bool reported_ = false;
};

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed, bool quick)
{
    if (name == "olap_scan")
        return std::make_unique<OlapScan>(seed, quick);
    if (name == "kvs_ycsb_a")
        return std::make_unique<KvsYcsbA>(seed, quick);
    if (name == "serve_open_4dev")
        return std::make_unique<ServeOpen4Dev>(seed, quick);
    return nullptr;
}

// --------------------------------------------------------------- phases

/**
 * Moves the process to the next CPU of its affinity set before each
 * setup and batch. Other tenants of the host contend for its vCPUs
 * unevenly and for seconds at a time (README.md, "Noise"); rotating makes
 * every run sample all of them, not just the one the scheduler left it
 * on.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof set, &set) == 0) {
            for (int c = 0; c < CPU_SETSIZE; ++c) {
                if (CPU_ISSET(c, &set))
                    cpus_.push_back(c);
            }
        }
    }

    void
    next()
    {
        if (cpus_.size() < 2)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[next_++ % cpus_.size()], &one);
        // Best effort: a refused move only loses the sampling.
        (void)sched_setaffinity(0, sizeof one, &one);
    }

  private:
    std::vector<int> cpus_;
    std::size_t next_ = 0;
};

/** One timed batch of a phase. */
struct Timed
{
    double wall_s = 0.0;
    double instructions = 0.0;
    double events = 0.0;
    double allocs = 0.0;
    Span span; ///< hot-path ticks are filled in the traced phase only
};

/** Everything a phase (all its rounds) measured. */
struct Phase
{
    std::vector<SetupTimes> setups;
    std::vector<Timed> timed;
    /** Every batch's result per round: rounds[r][b]. */
    std::vector<std::vector<BatchResult>> rounds;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/**
 * One round: a fresh setup, the warm-up batches, then (when @p timed)
 * the timed batches.
 */
void
runRound(Workload &w, Tracer &tr, CpuRotation &cpus, bool timed, Phase &ph)
{
    SpanScope round(tr, "round");
    cpus.next();
    ph.setups.push_back(w.setup(tr));
    ph.rounds.emplace_back();
    std::vector<BatchResult> &results = ph.rounds.back();

    const unsigned warmup = w.warmupBatches();
    const unsigned batches =
        timed ? warmup + w.timedBatches() : std::max(1u, warmup);
    for (unsigned b = 0; b < batches; ++b) {
        const bool warm = !timed || b < warmup;

        cpus.next();
        System &sys = w.system();
        Counters before = snapshot(sys, w.runtimes());
        std::uint64_t alloc0 = allocationCount();
        SpanScope run(tr, warm ? "run.warmup" : w.batchSpan());
        w.run(b);
        const double wall = run.close();
        const double allocs = static_cast<double>(allocationCount() - alloc0);

        BatchResult r;
        {
            SpanScope verify(tr, "verify");
            r.layers = delta(snapshot(sys, w.runtimes()), before);
            r.instructions = r.layers["ndp.instructions"];
            r.events = r.layers["sim.events"];
            r.sim_ticks = static_cast<Tick>(r.layers["sim.host_ticks"]);
            r.launches = static_cast<std::uint64_t>(r.layers["host.launches"]);
            r.rejected = static_cast<std::uint64_t>(
                r.layers["host.overload_rejections"]);
            r.shed =
                static_cast<std::uint64_t>(r.layers["host.deadline_shed"]);
            r.faulted = static_cast<std::uint64_t>(
                r.layers["host.faulted_completions"]);
            r.checksum = sys.engineChecksum();
            w.check(b, r);
        }
        ph.attempted += r.ops;
        ph.failed += r.failed;
        results.push_back(r);

        if (!warm) {
            ph.timed.push_back(
                Timed{wall, r.instructions, r.events, allocs, run.span()});
        }
    }
    w.teardown();
}

/**
 * Run rounds until @p seconds of timed batches are spent (and at least
 * @p min_rounds rounds ran), after the workload's warm-up rounds; then
 * add setup-only rounds until the workload's setup sample count is met.
 */
Phase
runPhase(Workload &w, Tracer &tr, CpuRotation &cpus, double seconds,
         unsigned min_rounds)
{
    Phase ph;
    for (unsigned i = 0; i < w.warmupRounds(); ++i) {
        Phase warm;
        runRound(w, tr, cpus, false, warm);
        // Warm-up rounds are not timed, but their outputs are checked.
        ph.attempted += warm.attempted;
        ph.failed += warm.failed;
    }
    double spent = 0.0;
    for (unsigned r = 0; r < min_rounds || spent < seconds; ++r) {
        std::size_t first = ph.timed.size();
        runRound(w, tr, cpus, true, ph);
        for (std::size_t i = first; i < ph.timed.size(); ++i)
            spent += ph.timed[i].wall_s;
    }
    while (ph.setups.size() < w.setupSamples()) {
        SpanScope round(tr, "round");
        cpus.next();
        ph.setups.push_back(w.setup(tr));
        w.teardown();
    }
    return ph;
}

/**
 * Compare every round of @p b, batch by batch, with the first round of
 * @p a; @return the batches whose model signature differs.
 */
std::uint64_t
crossCheck(const Phase &a, const Phase &b)
{
    std::uint64_t mismatches = 0;
    if (a.rounds.empty() || b.rounds.empty())
        return 1;
    const std::vector<BatchResult> &ref = a.rounds.front();
    for (const std::vector<BatchResult> &round : b.rounds) {
        for (std::size_t i = 0; i < round.size() && i < ref.size(); ++i) {
            if (!round[i].sameModel(ref[i]))
                ++mismatches;
        }
    }
    return mismatches;
}

// --------------------------------------------------------------- output

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

void
printResult(const std::string &workload, std::uint64_t seed, int trace,
            std::uint64_t attempted, std::uint64_t failed, bool correct,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
                "\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                workload.c_str(), static_cast<unsigned long long>(seed),
                trace, correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit);
    }
    std::printf("}}\n");
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/**
 * Simulated Minst per host second: the 90th percentile over the timed
 * batches. Contention from other tenants only ever slows a batch, so the
 * fast end of the distribution is the simulator's own speed; see
 * README.md, "Noise".
 */
double
minstPerSecond(const Phase &ph)
{
    std::vector<double> rates;
    for (const Timed &t : ph.timed)
        rates.push_back(ratio(t.instructions, t.wall_s) / 1e6);
    return quantile(rates, 0.9);
}

/**
 * Setup seconds: the 10th percentile over the run's setups, the fast
 * end for the same reason as minstPerSecond().
 */
double
setupSeconds(const Phase &ph)
{
    std::vector<double> setup;
    for (const SetupTimes &s : ph.setups)
        setup.push_back(s.total());
    return quantile(setup, 0.1);
}

std::vector<Metric>
endToEnd(const Phase &ph)
{
    return {{"sim_minst_per_s", minstPerSecond(ph), "Minst/s"},
            {"setup_s", setupSeconds(ph), "s"},
            {"peak_rss_mb", peakRssMb(), "MB"}};
}

std::vector<Metric>
perLayer(const Phase &plain, const Phase &traced, unsigned warmup)
{
    std::vector<Metric> m;

    // Wall-time ratios: untraced timed batches.
    double wall = 0.0, events = 0.0, insts = 0.0, allocs = 0.0;
    for (const Timed &t : plain.timed) {
        wall += t.wall_s;
        events += t.events;
        insts += t.instructions;
        allocs += t.allocs;
    }
    // Hot-path split: traced timed batches (scopes on).
    double ticks = 0.0, issue = 0.0, fill = 0.0, functional = 0.0;
    for (const Timed &t : traced.timed) {
        ticks += static_cast<double>(t.span.ticks);
        issue += static_cast<double>(t.span.issue);
        fill += static_cast<double>(t.span.fill);
        functional += static_cast<double>(t.span.functional);
    }
    auto pct = [ticks](double v) { return 100.0 * ratio(v, ticks); };

    // Deterministic ratios: the first timed batch of the traced phase's
    // first round (fixed work, so these repeat exactly).
    const std::vector<BatchResult> &first = traced.rounds.front();
    const BatchResult &win = first[std::min<std::size_t>(warmup,
                                                         first.size() - 1)];
    Counters r = layerRatios(win.layers);
    // The model signature: the first batch after setup (cold caches).
    const BatchResult &model = first.front();

    std::vector<double> sys_s, data_s, rt_s;
    for (const Phase *ph : {&plain, &traced}) {
        for (const SetupTimes &s : ph->setups) {
            sys_s.push_back(s.system);
            data_s.push_back(s.data);
            rt_s.push_back(s.runtime);
        }
    }

    m.push_back({"sim.events_per_inst", r["sim.events_per_inst"], "ev/inst"});
    m.push_back({"sim.host_ns_per_event", 1e9 * ratio(wall, events), "ns"});
    m.push_back({"host.launches", static_cast<double>(win.launches),
                 "count"});
    m.push_back({"host.peak_in_flight", r["host.peak_in_flight"], "count"});
    m.push_back({"host.rejected", static_cast<double>(win.rejected),
                 "count"});
    m.push_back({"host.shed", static_cast<double>(win.shed), "count"});
    m.push_back({"host.faulted", static_cast<double>(win.faulted), "count"});
    m.push_back({"host.setup_runtime_s", median(rt_s), "s"});
    m.push_back({"cxl.msgs_per_launch", r["cxl.msgs_per_launch"],
                 "msg/launch"});
    m.push_back({"cxl.queueing_ns_per_msg", r["cxl.queueing_ns_per_msg"],
                 "ns"});
    m.push_back({"device.m2func_calls", r["device.m2func_calls"], "count"});
    m.push_back({"ndp.issue_self_pct", pct(issue - functional), "%"});
    m.push_back({"ndp.stall_mem_wait_frac", r["ndp.stall_mem_wait_frac"],
                 "ratio"});
    m.push_back({"ndp.ready_occupancy_avg", r["ndp.ready_occupancy_avg"],
                 "uthreads"});
    m.push_back({"ndp.dtlb_hit_rate", r["ndp.dtlb_hit_rate"], "ratio"});
    m.push_back({"ndp.dtlb_fast_hit_rate", r["ndp.dtlb_fast_hit_rate"],
                 "ratio"});
    m.push_back({"isa.functional_pct", pct(functional), "%"});
    m.push_back({"cache.fill_pct", pct(fill), "%"});
    m.push_back({"cache.l1_hit_rate", r["cache.l1_hit_rate"], "ratio"});
    m.push_back({"cache.l2_hit_rate", r["cache.l2_hit_rate"], "ratio"});
    m.push_back({"cache.mshr_merge_ratio", r["cache.mshr_merge_ratio"],
                 "ratio"});
    m.push_back({"cache.packets_per_miss", r["cache.packets_per_miss"],
                 "pkt/miss"});
    m.push_back({"dram.row_hit_rate", r["dram.row_hit_rate"], "ratio"});
    m.push_back({"dram.bus_util", r["dram.bus_util"], "ratio"});
    m.push_back({"noc.queueing_ns_per_flit", r["noc.queueing_ns_per_flit"],
                 "ns"});
    m.push_back({"mem.heap_allocs_per_inst", ratio(allocs, insts),
                 "alloc/inst"});
    m.push_back({"mem.setup_data_s", median(data_s), "s"});
    m.push_back({"system.setup_system_s", median(sys_s), "s"});
    m.push_back({"other_pct",
                 pct(std::max(0.0, ticks - issue - fill)), "%"});
    m.push_back({"trace.overhead_pct",
                 100.0 * (ratio(minstPerSecond(plain),
                                minstPerSecond(traced)) -
                          1.0),
                 "%"});
    m.push_back({"model.instructions", model.instructions, "count"});
    m.push_back({"model.sim_us",
                 static_cast<double>(model.sim_ticks) / kUs, "us"});
    m.push_back({"model.p50_ns", model.p50_ns, "ns"});
    m.push_back({"model.p99_ns", model.p99_ns, "ns"});
    m.push_back({"model.goodput_mrps", model.goodput_mrps, "M/s"});
    return m;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    bool quick = false;
    std::string spans;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (k == "--quick") {
            a.quick = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::strtod(v.c_str(), nullptr);
        else if (k == "--trace")
            a.trace = std::atoi(v.c_str());
        else if (k == "--spans")
            a.spans = v;
        else
            return false;
    }
    return !a.workload.empty() && a.seconds > 0.0 &&
           (a.trace == 0 || a.trace == 1);
}

} // namespace
} // namespace ledger

int
main(int argc, char **argv)
{
    using namespace ledger;
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: ledger --workload NAME --seed N --seconds S "
                     "--trace 0|1 [--quick] [--spans PATH]\n");
        return 2;
    }
    std::unique_ptr<Workload> w =
        makeWorkload(args.workload, args.seed, args.quick);
    if (w == nullptr) {
        std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
        return 2;
    }

    Tracer tracer;
    CpuRotation cpus;
    if (args.trace == 0) {
        // Two rounds at least, so every run repeats its work once.
        Phase ph = runPhase(*w, tracer, cpus, args.seconds, 2);
        std::uint64_t failed = ph.failed + crossCheck(ph, ph);
        bool correct = failed == 0;
        printResult(args.workload, args.seed, 0, ph.attempted, failed,
                    correct, endToEnd(ph));
        return correct ? 0 : 1;
    }

    // Traced: the same rounds untraced, then with spans and hot-path
    // scopes on; model signatures must agree across both halves.
    Phase plain = runPhase(*w, tracer, cpus, args.seconds / 2, 1);
    tracer.on = true;
    hotpath::g.enabled = true;
    Phase traced = runPhase(*w, tracer, cpus, args.seconds / 2, 1);
    hotpath::g.enabled = false;
    tracer.on = false;

    std::uint64_t mismatches =
        crossCheck(plain, plain) + crossCheck(plain, traced);
    std::uint64_t failed = plain.failed + traced.failed + mismatches;
    bool correct = failed == 0;
    if (!args.spans.empty() && !tracer.write(args.spans)) {
        std::fprintf(stderr, "cannot write spans to %s\n",
                     args.spans.c_str());
        correct = false;
    }
    printResult(args.workload, args.seed, 1,
                plain.attempted + traced.attempted, failed, correct,
                perLayer(plain, traced, w->warmupBatches()));
    return correct ? 0 : 1;
}
