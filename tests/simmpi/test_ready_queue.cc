/**
 * @file
 * The scheduler's ready queue pops in exactly a binary heap's order.
 *
 * ReadyQueue splits its keys between a sorted FIFO run and a fallback
 * heap; event order (and so every simulated time) depends on its pops
 * matching the push_heap/pop_heap queue it replaced. Each scenario
 * drives both with the same seeded push/pop script and compares every
 * pop.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "src/simmpi/runtime.hh"
#include "src/util/rng.hh"

using namespace match::simmpi;

namespace
{

/** ReadyQueue beside the binary-heap reference, each rank queued at
 *  most once (as in the runtime). */
class Pair
{
  public:
    explicit Pair(int ranks) : queued_(ranks, false) {}

    void
    push(SimTime clock, int g)
    {
        ASSERT_FALSE(queued_[g]);
        queued_[g] = true;
        queue_.push(clock, g);
        ref_.emplace_back(clock, g);
        std::push_heap(ref_.begin(), ref_.end(), std::greater<>());
    }

    /** Pop both; the ranks must agree. Returns the rank. */
    int
    pop()
    {
        EXPECT_FALSE(queue_.empty());
        std::pop_heap(ref_.begin(), ref_.end(), std::greater<>());
        const auto [clock, want] = ref_.back();
        ref_.pop_back();
        const int got = queue_.pop();
        EXPECT_EQ(got, want) << "at clock " << clock << " after " << pops_
                             << " pops";
        queued_[want] = false;
        ++pops_;
        return want;
    }

    void
    drain()
    {
        while (!ref_.empty())
            pop();
        EXPECT_TRUE(queue_.empty());
    }

    void
    clear()
    {
        queue_.clear();
        ref_.clear();
        std::fill(queued_.begin(), queued_.end(), false);
        EXPECT_TRUE(queue_.empty());
    }

    bool queued(int g) const { return queued_[g]; }
    bool empty() const { return ref_.empty(); }
    int pops() const { return pops_; }

  private:
    ReadyQueue queue_;
    std::vector<std::pair<SimTime, int>> ref_;
    std::vector<bool> queued_;
    int pops_ = 0;
};

/** Push every unqueued rank in `order` at clock(rank). */
template <typename ClockFn>
void
burst(Pair &pair, const std::vector<int> &order, ClockFn clock)
{
    for (int g : order)
        if (!pair.queued(g))
            pair.push(clock(g), g);
}

std::vector<int>
shuffled(int n, match::util::Rng &rng)
{
    std::vector<int> order(n);
    for (int g = 0; g < n; ++g)
        order[g] = g;
    for (int i = n - 1; i > 0; --i)
        std::swap(order[i], order[rng.below(i + 1)]);
    return order;
}

} // namespace

TEST(SimMpiReadyQueue, PopOrderMatchesBinaryHeap)
{
    constexpr int kRanks = 64;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(seed);
        match::util::Rng rng(seed);
        Pair pair(kRanks);
        std::vector<int> inOrder(kRanks);
        for (int g = 0; g < kRanks; ++g)
            inOrder[g] = g;

        // A collective's wake burst: rank order, one clock.
        burst(pair, inOrder, [](int) { return 1.0; });
        pair.drain();
        // Already sorted by clock, rank-ordered ties.
        burst(pair, inOrder, [](int g) { return 2.0 + (g / 4) * 0.25; });
        pair.drain();
        // Equal clocks pushed out of rank order.
        burst(pair, shuffled(kRanks, rng), [](int) { return 3.0; });
        pair.drain();
        // Out-of-order clocks, with frequent ties.
        burst(pair, shuffled(kRanks, rng),
              [&](int) { return 4.0 + rng.below(6) * 0.5; });
        pair.drain();

        // Pushes interleaved with pops, DES-style: a popped rank comes
        // back no earlier than it left, a woken rank at any clock.
        SimTime now = 10.0;
        burst(pair, inOrder, [&](int) { return now + rng.below(4); });
        for (int step = 0; step < 4000; ++step) {
            const std::uint64_t op = rng.below(8);
            if (op < 3 && !pair.empty()) {
                pair.pop();
            } else if (op < 5 && !pair.empty()) {
                const int g = pair.pop();
                now += rng.below(3) * 0.125;
                pair.push(now + rng.below(2), g);
            } else if (op < 6) {
                // Rank-order wake burst of every parked rank at one
                // clock: the run's append path.
                const SimTime at = now + rng.below(3);
                burst(pair, inOrder, [&](int) { return at; });
            } else {
                const int g = static_cast<int>(rng.below(kRanks));
                if (!pair.queued(g))
                    pair.push(now + rng.below(5) * 0.25, g);
            }
        }
        pair.drain();

        // The run drains to empty and refills, many times, wrapping its
        // ring (pops and pushes alternate while it is partly full).
        for (int round = 0; round < 50; ++round) {
            const SimTime base = 100.0 + round;
            for (int g = 0; g < kRanks / 2; ++g)
                pair.push(base, g);
            for (int i = 0; i < kRanks / 4; ++i) {
                pair.pop();
                const int g = kRanks / 2 + i;
                pair.push(base + 0.5, g);
            }
            pair.drain();
        }

        // clear() between jobs: a half-used queue is dropped, and the
        // next job starts from an earlier clock.
        burst(pair, shuffled(kRanks, rng),
              [&](int) { return 500.0 + rng.below(8); });
        for (int i = 0; i < kRanks / 3; ++i)
            pair.pop();
        pair.clear();
        burst(pair, inOrder, [](int) { return 0.0; });
        for (int i = 0; i < kRanks / 2; ++i) {
            const int g = pair.pop();
            pair.push(0.5 * (g % 3), g);
        }
        pair.drain();
        EXPECT_GT(pair.pops(), 4 * kRanks);
    }
}
