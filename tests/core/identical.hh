/**
 * @file
 * Bit-identity check for experiment results, shared by the core tests
 * that run one cell two ways (storage backends, --jobs counts, fault
 * trace replay) and require the same answer to the last bit.
 */

#ifndef MATCH_TESTS_CORE_IDENTICAL_HH
#define MATCH_TESTS_CORE_IDENTICAL_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "src/core/experiment.hh"

namespace match::core
{

/** The bits of `value`: EXPECT_DOUBLE_EQ would forgive 4 ULPs of
 *  drift and a sign flip of zero. */
inline std::uint64_t
bitsOf(double value)
{
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

/** Compare two results field by field, bit for bit. */
inline void
expectIdenticalResults(const ExperimentResult &a, const ExperimentResult &b)
{
    const auto expectIdentical = [](const ft::Breakdown &x,
                                    const ft::Breakdown &y) {
        EXPECT_EQ(bitsOf(x.application), bitsOf(y.application));
        EXPECT_EQ(bitsOf(x.ckptWrite), bitsOf(y.ckptWrite));
        EXPECT_EQ(bitsOf(x.ckptRead), bitsOf(y.ckptRead));
        EXPECT_EQ(bitsOf(x.recovery), bitsOf(y.recovery));
        EXPECT_EQ(x.attempts, y.attempts);
        EXPECT_EQ(x.recoveries, y.recoveries);
        EXPECT_EQ(x.failureFired, y.failureFired);
    };
    expectIdentical(a.mean, b.mean);
    ASSERT_EQ(a.perRun.size(), b.perRun.size());
    for (std::size_t i = 0; i < a.perRun.size(); ++i)
        expectIdentical(a.perRun[i], b.perRun[i]);
}

} // namespace match::core

#endif // MATCH_TESTS_CORE_IDENTICAL_HH
