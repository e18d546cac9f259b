// ndp-lint golden fixture: every violation in this file carries an
// audited suppression, so the file must lint CLEAN (zero unsuppressed
// findings) while the summary tallies one suppressed finding per rule
// named below. check_lint.py asserts both directions.
//
// expect-clean
// expect-suppressed: hotpath-alloc nondeterminism partition-safety

#include <cstdlib>
#include <unordered_map>
#include <vector>

#define M2NDP_HOT_PATH

template <typename Sig>
struct InlineCallback
{
    template <typename F> InlineCallback(F &&f) {}
    InlineCallback() = default;
};
using EventCallback = InlineCallback<void()>;

struct EventQueue
{
    void schedule(long when, EventCallback cb) {}
};

struct HostCxlPort
{
    EventQueue &deviceQueue();
};

struct Fixture
{
    std::vector<int> ring;
    std::unordered_map<long, int> by_id;
    HostCxlPort *port;

    M2NDP_HOT_PATH
    void
    hot(int v)
    {
        // Steady-state capacity was provisioned in setup; push_back
        // cannot reallocate here. ndp-lint: allow(hotpath-alloc)
        ring.push_back(v);
    }

    long
    checksum()
    {
        long sum = 0;
        // Order-insensitive fold (commutative sum). ndp-lint: allow(nondeterminism)
        for (auto &kv : by_id)
            sum += kv.second;
        return sum;
    }

    void
    debugPoke(long now)
    {
        // Debug-only path, never compiled into the sim loop.
        // ndp-lint: allow(partition-safety)
        port->deviceQueue().schedule(now, [] {});
    }
};
