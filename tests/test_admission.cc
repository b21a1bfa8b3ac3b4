/**
 * @file
 * Tests for the CoDel-style admission controller
 * (service/admission.hh).  Time is injected, so every arming and
 * dropping transition is driven deterministically from a synthetic
 * clock — no sleeps, no real queue.
 */

#include <chrono>
#include <gtest/gtest.h>

#include "service/admission.hh"

using jcache::service::AdmissionConfig;
using jcache::service::AdmissionController;
using jcache::service::AdmissionState;

namespace
{

using Clock = AdmissionController::Clock;

/** A fixed origin plus a millisecond offset: the synthetic clock. */
Clock::time_point
at(double millis)
{
    static const Clock::time_point origin = Clock::now();
    return origin +
           std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double, std::milli>(millis));
}

/** target 50ms / interval 100ms: transitions stay easy to stage. */
AdmissionConfig
testConfig()
{
    AdmissionConfig config;
    config.targetMillis = 50.0;
    config.intervalMillis = 100.0;
    return config;
}

} // namespace

TEST(AdmissionController, NeverShedsBelowTarget)
{
    AdmissionController controller(testConfig());
    for (int i = 0; i < 200; ++i)
        EXPECT_FALSE(
            controller.shouldShed(0.010, 10, at(i * 10.0)));
    AdmissionState state = controller.state();
    EXPECT_FALSE(state.dropping);
    EXPECT_EQ(state.totalDropped, 0u);
    EXPECT_NEAR(state.windowP50Millis, 10.0, 1e-9);
}

TEST(AdmissionController, ArmsThenDropsAfterOneInterval)
{
    AdmissionController controller(testConfig());
    // First above-target median only arms the controller.
    EXPECT_FALSE(controller.shouldShed(0.200, 5, at(0)));
    // Still above, but the interval has not elapsed yet.
    EXPECT_FALSE(controller.shouldShed(0.200, 5, at(50)));
    EXPECT_FALSE(controller.state().dropping);
    // One full interval above target: dropping starts.
    EXPECT_TRUE(controller.shouldShed(0.200, 5, at(100)));
    AdmissionState state = controller.state();
    EXPECT_TRUE(state.dropping);
    EXPECT_EQ(state.dropCount, 1u);
    EXPECT_EQ(state.totalDropped, 1u);
}

TEST(AdmissionController, DropCountGrowsWhileOverloadPersists)
{
    AdmissionController controller(testConfig());
    controller.shouldShed(0.200, 5, at(0));
    controller.shouldShed(0.200, 5, at(100));
    for (std::uint64_t i = 2; i <= 6; ++i) {
        EXPECT_TRUE(
            controller.shouldShed(0.200, 5, at(100.0 + i)));
        EXPECT_EQ(controller.dropCount(), i);
    }
    EXPECT_EQ(controller.state().totalDropped, 6u);
}

TEST(AdmissionController, RecoveryResetsTheEpisode)
{
    AdmissionController controller(testConfig());
    controller.shouldShed(0.200, 5, at(0));
    EXPECT_TRUE(controller.shouldShed(0.200, 5, at(100)));

    // A run of fast dequeues pulls the window median back under
    // target (old samples also age out past the interval): the
    // controller must leave dropping and forget its drop count.
    for (int i = 0; i < 8; ++i)
        EXPECT_FALSE(
            controller.shouldShed(0.001, 5, at(210.0 + i)));
    AdmissionState state = controller.state();
    EXPECT_FALSE(state.dropping);
    EXPECT_EQ(state.dropCount, 0u);
    EXPECT_EQ(state.totalDropped, 1u);

    // A fresh overload (after the fast samples age out) must re-arm
    // and wait out a full interval again before the next shed.
    EXPECT_FALSE(controller.shouldShed(0.200, 5, at(330)));
    EXPECT_FALSE(controller.shouldShed(0.200, 5, at(380)));
    EXPECT_TRUE(controller.shouldShed(0.200, 5, at(430)));
}

TEST(AdmissionController, NeverShedsTheLastJob)
{
    AdmissionController controller(testConfig());
    controller.shouldShed(0.200, 5, at(0));
    // Dropping state is due, but nothing waits behind this job:
    // running it beats bouncing it, always.
    EXPECT_FALSE(controller.shouldShed(0.200, 0, at(100)));
    EXPECT_FALSE(controller.shouldShed(0.200, 0, at(101)));
    EXPECT_EQ(controller.state().totalDropped, 0u);
    // The moment a backlog exists again, the shed goes through.
    EXPECT_TRUE(controller.shouldShed(0.200, 1, at(102)));
}

TEST(AdmissionController, UpperMedianSeesOneSlowJobOfTwo)
{
    AdmissionController controller(testConfig());
    // One fast and one slow sample: the upper median reports the
    // slow one, so a 50/50 split already reads as over target.
    controller.shouldShed(0.001, 1, at(0));
    controller.shouldShed(0.400, 1, at(1));
    EXPECT_NEAR(controller.state().windowP50Millis, 400.0, 1e-9);
}

TEST(AdmissionController, WindowAgesOutStaleSamples)
{
    AdmissionController controller(testConfig());
    // A burst of slow samples, then silence.  The next sample lands
    // more than one interval later: the stale ones must be gone and
    // the median must reflect only the fresh, fast sample.
    for (int i = 0; i < 10; ++i)
        controller.shouldShed(0.300, 5, at(i));
    EXPECT_FALSE(controller.shouldShed(0.001, 5, at(500)));
    AdmissionState state = controller.state();
    EXPECT_EQ(state.windowSamples, 1u);
    EXPECT_NEAR(state.windowP50Millis, 1.0, 1e-9);
    EXPECT_FALSE(state.dropping);
}

TEST(AdmissionController, WindowIsBoundedBySampleCount)
{
    AdmissionConfig config = testConfig();
    config.windowSamples = 4;
    // A huge interval so only the count bound trims.
    config.intervalMillis = 1e9;
    AdmissionController controller(config);
    for (int i = 0; i < 100; ++i)
        controller.shouldShed(0.010, 5, at(i));
    EXPECT_EQ(controller.state().windowSamples, 4u);
}
