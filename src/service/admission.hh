/**
 * @file
 * Adaptive (CoDel-style) admission control for the job queue.
 *
 * The bounded queue caps *backlog*; it does not cap *time in queue*.
 * A queue of 64 slow sweeps admits every one of them into minutes of
 * latency before the capacity check sheds anything.  The controller
 * here bounds sojourn time the way CoDel bounds standing queues in
 * routers (Nichols & Jacobson, "Controlling Queue Delay", 2012):
 *
 *  - every dequeue reports its **sojourn** (admission -> scheduler
 *    pop) into a sliding window;
 *  - when the window's median sojourn has stayed above `targetMillis`
 *    for one full `intervalMillis`, the controller enters a
 *    **dropping** state and sheds jobs at the *front* of the queue
 *    (the ones that already waited too long, and whose submitters
 *    are the most likely to have given up);
 *  - while dropping, consecutive sheds raise `dropCount()`, which the
 *    service folds into progressively *shorter* `retry_after_ms`
 *    hints (scale 1/sqrt(count)) — the CoDel control law: under
 *    persistent overload, invite retries sooner rather than backing
 *    every client off to the horizon;
 *  - the first median back at or under target exits dropping and
 *    resets the count.
 *
 * A shed is only taken when more work is waiting behind the examined
 * job (`queuedBehind > 0`): shedding the only job in the system saves
 * nobody any time.
 *
 * The controller is a pure decision box: the Service owns the queue
 * and the shed bookkeeping, and asks `shouldShed()` once per dequeue.
 * All methods are thread-safe; time is passed in, never sampled, so
 * unit tests drive it with a synthetic clock.
 */

#ifndef JCACHE_SERVICE_ADMISSION_HH
#define JCACHE_SERVICE_ADMISSION_HH

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>

namespace jcache::service
{

/** Tunables of the sojourn-time controller. */
struct AdmissionConfig
{
    /** Acceptable median queue wait (jcached --admission-target-ms). */
    double targetMillis = 50.0;

    /**
     * How long the median must stay above target before the first
     * shed (jcached --admission-interval-ms).  Also the age horizon
     * of the sojourn window.
     */
    double intervalMillis = 500.0;

    /** Sample-count bound of the sliding sojourn window. */
    std::size_t windowSamples = 128;
};

/** Point-in-time controller state, for stats/metrics. */
struct AdmissionState
{
    /** True while the controller is shedding to drain the queue. */
    bool dropping = false;

    /** Consecutive sheds in the current dropping episode. */
    std::uint64_t dropCount = 0;

    /** Total sheds the controller ever asked for. */
    std::uint64_t totalDropped = 0;

    /** Median sojourn of the current window, in milliseconds. */
    double windowP50Millis = 0.0;

    /** Samples resident in the window. */
    std::size_t windowSamples = 0;
};

/** The sojourn-time decision box described in the file comment. */
class AdmissionController
{
  public:
    using Clock = std::chrono::steady_clock;

    explicit AdmissionController(const AdmissionConfig& config = {});

    /**
     * Record one dequeue's sojourn and decide whether to shed it.
     *
     * @param sojournSeconds  admission -> dequeue wait of this job
     * @param queuedBehind    jobs still waiting behind it
     * @param now             the dequeue instant (injectable)
     * @return true when the job should be shed instead of run.
     */
    bool shouldShed(double sojournSeconds, std::size_t queuedBehind,
                    Clock::time_point now);

    /** Consecutive sheds in the current dropping episode. */
    std::uint64_t dropCount() const;

    /** Point-in-time controller state, for stats payloads. */
    AdmissionState state() const;

    /** The tunables this controller was built with. */
    const AdmissionConfig& config() const { return config_; }

  private:
    /** Upper-median sojourn of the window, in ms; 0 when empty. */
    double windowP50Locked() const;

    const AdmissionConfig config_;

    mutable std::mutex mutex_;

    /** (dequeue instant, sojourn ms), oldest first. */
    std::deque<std::pair<Clock::time_point, double>> window_;

    /** When the median first exceeded target; unset while under. */
    Clock::time_point aboveSince_{};
    bool aboveArmed_ = false;

    bool dropping_ = false;
    std::uint64_t dropCount_ = 0;
    std::uint64_t totalDropped_ = 0;
};

} // namespace jcache::service

#endif // JCACHE_SERVICE_ADMISSION_HH
