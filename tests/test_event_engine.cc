/**
 * @file
 * Tests for the zero-allocation event engine: (tick, seq) heap ordering
 * for near and far-future events, FIFO tie-break determinism, Ticker
 * coalescing and cancellation, and the InlineCallback small-buffer wrapper.
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"

namespace m2ndp {
namespace {

// A far-future distance (~4.2 us), well past every dense latency in the
// model, for mixing sparse long-range events with near-term ones.
constexpr Tick kBeyondHorizon = Tick(1) << 22;

TEST(EventEngine, FifoTieBreakAtEqualTicks)
{
    EventQueue eq;
    std::vector<int> order;
    // Interleave two ticks; within a tick, scheduling order must hold.
    for (int i = 0; i < 64; ++i) {
        eq.schedule(1000, [&order, i] { order.push_back(i); });
        eq.schedule(500, [&order, i] { order.push_back(1000 + i); });
    }
    eq.run();
    ASSERT_EQ(order.size(), 128u);
    for (int i = 0; i < 64; ++i) {
        EXPECT_EQ(order[i], 1000 + i);    // tick 500 first, FIFO within
        EXPECT_EQ(order[64 + i], i);      // then tick 1000, FIFO within
    }
}

TEST(EventEngine, OverflowTierPreservesGlobalOrdering)
{
    EventQueue eq;
    std::vector<Tick> fired;
    // Far-future events, scheduled in scrambled order.
    for (Tick t : {7, 3, 9, 1, 5})
        eq.schedule(t * kBeyondHorizon, [&fired, &eq] {
            fired.push_back(eq.now());
        });
    // Near-term events.
    for (Tick t : {400, 100})
        eq.schedule(t, [&fired, &eq] { fired.push_back(eq.now()); });
    eq.run();
    ASSERT_EQ(fired.size(), 7u);
    EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
    EXPECT_EQ(fired.front(), 100u);
    EXPECT_EQ(fired.back(), 9 * kBeyondHorizon);
}

TEST(EventEngine, FifoTieBreakAcrossTiers)
{
    // An event scheduled long in advance and one scheduled for the same
    // tick from close range must still fire in scheduling order.
    EventQueue eq;
    std::vector<char> order;
    const Tick target = kBeyondHorizon + 1000;
    eq.schedule(10, [] {});
    eq.schedule(target, [&order] { order.push_back('A'); }); // far ahead
    eq.schedule(target - 500, [&order, &eq, target] {
        eq.schedule(target, [&order] { order.push_back('B'); }); // close
    });
    eq.run();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 'A'); // scheduled first, wins the tie
    EXPECT_EQ(order[1], 'B');
}

TEST(EventEngine, HighChurnRecyclingKeepsCountsConsistent)
{
    EventQueue eq;
    std::uint64_t fired = 0;
    // Self-rescheduling chains churn the node pool far past one slab.
    for (unsigned i = 0; i < 8; ++i) {
        struct Chain
        {
            static void
            step(EventQueue &eq, std::uint64_t &fired, unsigned hops)
            {
                ++fired;
                if (hops > 0) {
                    eq.scheduleAfter(17 + hops % 97,
                                     [&eq, &fired, hops] {
                                         step(eq, fired, hops - 1);
                                     });
                }
            }
        };
        eq.schedule(i, [&eq, &fired] { Chain::step(eq, fired, 999); });
    }
    EXPECT_EQ(eq.pending(), 8u);
    eq.run();
    EXPECT_EQ(fired, 8u * 1000u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventEngine, RunWithLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { fired = 1; });
    eq.schedule(100, [&] { fired = 2; });
    EXPECT_EQ(eq.run(50), 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 50u);
    EXPECT_EQ(eq.nextEventTick(), 100u);
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventEngine, MoveOnlyCaptures)
{
    EventQueue eq;
    int value = 0;
    // Move-only capture (std::function would reject this).
    auto owned = std::make_unique<int>(41);
    eq.schedule(10, [&value, owned = std::move(owned)] { value = *owned; });
    eq.schedule(20, [&value] { ++value; });
    eq.run();
    EXPECT_EQ(value, 42);
}

TEST(Ticker, CoalescesAndSupersedes)
{
    EventQueue eq;
    std::vector<Tick> fires;
    Ticker ticker(eq, [&] { fires.push_back(eq.now()); });

    // Later arm after earlier arm: coalesced into the earlier one.
    ticker.armAt(100);
    ticker.armAt(500);
    EXPECT_EQ(ticker.armedAt(), 100u);
    eq.run();
    ASSERT_EQ(fires.size(), 1u);
    EXPECT_EQ(fires[0], 100u);
    EXPECT_FALSE(ticker.armed());
    EXPECT_TRUE(eq.empty()); // no stale superseded event left behind

    // Earlier arm after later arm: supersedes; fires exactly once.
    ticker.armAt(900);
    ticker.armAt(700);
    EXPECT_EQ(ticker.armedAt(), 700u);
    eq.run();
    ASSERT_EQ(fires.size(), 2u);
    EXPECT_EQ(fires[1], 700u);
    EXPECT_TRUE(eq.empty()); // the 900 arm was cancelled, not abandoned
}

TEST(Ticker, DisarmAndRearmFromCallback)
{
    EventQueue eq;
    int count = 0;
    Ticker ticker(eq, [&] {
        ++count;
        if (count < 3)
            ticker.armAt(eq.now() + 50); // re-arming from the callback
    });
    ticker.armAt(10);
    eq.run();
    EXPECT_EQ(count, 3);

    ticker.armAt(eq.now() + 10);
    ticker.disarm();
    EXPECT_FALSE(ticker.armed());
    eq.run();
    EXPECT_EQ(count, 3); // disarmed arm never fired
    EXPECT_TRUE(eq.empty());
}

TEST(Ticker, ArmingInThePastPanics)
{
    EventQueue eq;
    Ticker ticker(eq, [] {});
    eq.schedule(1000, [] {});
    eq.run();
    ASSERT_EQ(eq.now(), 1000u);
    // The old DRAM arm path silently clamped this with std::max(at, now);
    // it is a modeling bug and must be caught loudly.
    EXPECT_THROW(ticker.armAt(500), std::logic_error);
}

TEST(Ticker, CancelledOverflowArmIsHarmless)
{
    EventQueue eq;
    int fired = 0;
    Ticker ticker(eq, [&] { ++fired; });
    eq.schedule(10, [] {});
    ticker.armAt(3 * kBeyondHorizon); // far-future arm
    ticker.armAt(100);                // supersede: cancels mid-heap
    eq.schedule(2 * kBeyondHorizon, [] {});
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.empty());
}

TEST(EventEngine, DifferentialStressAgainstReferenceModel)
{
    // Random near, same-tick and far-future schedules plus random Ticker
    // arms, supersedes and disarms, checked event-by-event against a
    // trivially correct reference: a (when, seq)-ordered multimap in
    // which every cancel is mirrored as an erase.
    EventQueue eq;
    using Model = std::multimap<std::pair<Tick, std::uint64_t>, int>;
    Model model;
    std::uint64_t next_seq = 0;
    std::vector<int> fired_eq, fired_model;

    std::uint64_t rng = 0x1234'5678'9ABC'DEF0ull;
    auto next_rand = [&rng] {
        rng ^= rng >> 12;
        rng ^= rng << 25;
        rng ^= rng >> 27;
        return rng * 0x2545F4914F6CDD1Dull;
    };
    auto random_delay = [](std::uint64_t r) -> Tick {
        if ((r & 7) == 0)
            return (r >> 8) % (8 * kBeyondHorizon); // far future
        if ((r & 7) == 1)
            return 0; // same tick
        return (r >> 8) % 5000; // near term
    };

    // Model-side view of each Ticker, kept independently of the Ticker's
    // own state so coalescing is checked rather than copied.
    struct TickerSlot
    {
        std::unique_ptr<Ticker> ticker;
        bool pending = false;
        Tick at = 0;
        int arm_id = -1;
        Model::iterator entry;
    };
    constexpr unsigned kTickers = 8;
    std::vector<TickerSlot> slots(kTickers);

    int tag = 0;
    std::uint64_t cancels = 0;
    auto arm = [&](TickerSlot &s, Tick when) {
        if (s.pending && s.at <= when)
            return; // coalesced: the earlier arm stands, nothing scheduled
        if (s.pending) {
            model.erase(s.entry); // supersede cancels the later arm
            ++cancels;
        }
        s.ticker->armAt(when);
        s.pending = true;
        s.at = when;
        s.arm_id = tag++;
        s.entry = model.emplace(std::make_pair(when, next_seq++), s.arm_id);
    };
    auto disarm = [&](TickerSlot &s) {
        if (s.pending) {
            model.erase(s.entry);
            ++cancels;
        }
        s.ticker->disarm();
        s.pending = false;
    };
    auto poke_ticker = [&](std::uint64_t r) {
        TickerSlot &s = slots[(r >> 40) % kTickers];
        if (((r >> 48) & 3) == 0)
            disarm(s);
        else
            arm(s, eq.now() + random_delay(r >> 16));
        ASSERT_EQ(s.ticker->armed(), s.pending);
        if (s.pending) {
            ASSERT_EQ(s.ticker->armedAt(), s.at);
        }
    };

    // Each Ticker reaches this shared body through one pointer: a
    // by-reference capture of every local it touches would overflow the
    // 48 B inline callback budget.
    auto ticker_fired = [&](unsigned k) {
        TickerSlot &s = slots[k];
        s.pending = false;
        fired_eq.push_back(s.arm_id);
        std::uint64_t r = next_rand();
        if ((r & 3) == 0 && tag < 20000)
            arm(s, eq.now() + random_delay(r >> 2)); // re-arm self
    };
    for (unsigned k = 0; k < kTickers; ++k) {
        slots[k].ticker = std::make_unique<Ticker>(
            eq, [&ticker_fired, k] { ticker_fired(k); });
    }

    std::function<void()> schedule_random = [&] {
        std::uint64_t r = next_rand();
        Tick when = eq.now() + random_delay(r);
        int id = tag++;
        bool respawn = (r & 63) != 63 && id < 20000;
        eq.schedule(when, [&, id, respawn] {
            fired_eq.push_back(id);
            std::uint64_t r2 = next_rand();
            if ((r2 & 3) != 0)
                poke_ticker(r2);
            if (respawn)
                schedule_random();
        });
        model.emplace(std::make_pair(when, next_seq++), id);
    };

    for (int i = 0; i < 200; ++i)
        schedule_random();

    // Every schedule was entered into the model at schedule time and
    // every cancel erased there, so the model's (when, seq) order is the
    // exact sequence the engine must fire.
    eq.run();
    for (auto &kv : model)
        fired_model.push_back(kv.second);

    EXPECT_GT(cancels, 1000u);
    ASSERT_EQ(fired_eq.size(), fired_model.size());
    EXPECT_EQ(fired_eq, fired_model);
    EXPECT_TRUE(eq.empty());
}

// Synthetic open system of self-rescheduling actors: mixed near and far
// delays plus same-tick fan-out. Each event captures a pointer and ~4
// words (~40 B), the shape of the model's real scheduling sites.
struct ActorCtx
{
    EventQueue eq;
    std::uint64_t executed = 0;
    std::uint64_t checksum = 0;
    std::uint64_t target = 0;
    std::uint64_t rng = 0x9E3779B97F4A7C15ull; // xorshift64* state
};

void
actorStep(ActorCtx *c, unsigned id, std::uint64_t s0, std::uint64_t s1,
          std::uint64_t s2)
{
    c->checksum = c->checksum * 31 + (c->eq.now() ^ id) + (s0 ^ s1 ^ s2);
    ++c->executed;
    if (c->executed >= c->target)
        return;
    c->rng ^= c->rng >> 12;
    c->rng ^= c->rng << 25;
    c->rng ^= c->rng >> 27;
    std::uint64_t r = c->rng * 0x2545F4914F6CDD1Dull;
    Tick delay;
    switch (r & 15) {
      case 0:
        delay = 0; // same-tick fan-out: exercises the FIFO tie-break
        break;
      case 1:
        delay = 50'000 + (r >> 8) % 3'000'000; // sparse far-future event
        break;
      default:
        delay = 100 + (r >> 8) % 2'000; // dense near-term traffic
        break;
    }
    std::uint64_t n0 = r, n1 = r ^ id, n2 = s0 + s2;
    c->eq.scheduleAfter(
        delay, [c, id, n0, n1, n2] { actorStep(c, id, n0, n1, n2); });
}

TEST(EventEngine, ActorWorkloadChecksumGolden)
{
    // 1024 actors (a full figure run's concurrency: 32 units x 64 uthread
    // slots plus DRAM and host events in flight) until 2 M events have
    // fired. The checksum folds every firing's (tick, actor, payload) in
    // order, so any change to the engine's event order, FIFO tie-break
    // included, changes it.
    auto ctx = std::make_unique<ActorCtx>();
    ActorCtx *c = ctx.get();
    c->target = 2'000'000;
    for (unsigned i = 0; i < 1024; ++i)
        c->eq.schedule(i, [c, i] { actorStep(c, i, i, 0, 0); });
    c->eq.run();

    // Actors already scheduled when the target is reached still fire.
    EXPECT_EQ(c->executed, 2'001'023u);
    EXPECT_EQ(c->checksum, 0xe8d847d352a080c6ull);
}

} // namespace
} // namespace m2ndp
