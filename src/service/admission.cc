/**
 * @file
 * Implementation of the CoDel-style admission controller.
 */

#include "service/admission.hh"

#include <algorithm>
#include <vector>

namespace jcache::service
{

AdmissionController::AdmissionController(
    const AdmissionConfig& config)
    : config_(config)
{
}

double
AdmissionController::windowP50Locked() const
{
    if (window_.empty())
        return 0.0;
    std::vector<double> sorted;
    sorted.reserve(window_.size());
    for (const auto& sample : window_)
        sorted.push_back(sample.second);
    // Upper median: with an even count the larger of the two middle
    // samples, so one slow job among two is already visible.
    std::size_t mid = sorted.size() / 2;
    std::nth_element(sorted.begin(), sorted.begin() + mid,
                     sorted.end());
    return sorted[mid];
}

bool
AdmissionController::shouldShed(double sojournSeconds,
                                std::size_t queuedBehind,
                                Clock::time_point now)
{
    std::lock_guard<std::mutex> lock(mutex_);

    window_.emplace_back(now, sojournSeconds * 1000.0);
    while (window_.size() > config_.windowSamples)
        window_.pop_front();
    // Age out samples older than one interval; the freshly pushed
    // sample always survives, so the window is never empty here.
    auto horizon = std::chrono::duration<double, std::milli>(
        config_.intervalMillis);
    while (window_.size() > 1 &&
           now - window_.front().first >
               std::chrono::duration_cast<Clock::duration>(horizon)) {
        window_.pop_front();
    }

    double p50 = windowP50Locked();
    if (p50 <= config_.targetMillis) {
        aboveArmed_ = false;
        dropping_ = false;
        dropCount_ = 0;
        return false;
    }

    if (!dropping_) {
        if (!aboveArmed_) {
            aboveArmed_ = true;
            aboveSince_ = now;
            return false;
        }
        if (now - aboveSince_ <
            std::chrono::duration_cast<Clock::duration>(horizon)) {
            return false;
        }
        dropping_ = true;
        dropCount_ = 0;
    }

    // Never shed the last job standing: with nothing queued behind
    // it, running it is strictly better than bouncing it.
    if (queuedBehind == 0)
        return false;

    ++dropCount_;
    ++totalDropped_;
    return true;
}

std::uint64_t
AdmissionController::dropCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return dropCount_;
}

AdmissionState
AdmissionController::state() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    AdmissionState state;
    state.dropping = dropping_;
    state.dropCount = dropCount_;
    state.totalDropped = totalDropped_;
    state.windowP50Millis = windowP50Locked();
    state.windowSamples = window_.size();
    return state;
}

} // namespace jcache::service
