#include "service/job_queue.hh"

#include <algorithm>

#include "harness/batch_run.hh"
#include "support/logging.hh"

namespace nachos {

JobQueue::JobQueue(size_t interactiveCapacity, size_t bulkCapacity)
    : interactiveCapacity_(interactiveCapacity),
      bulkCapacity_(bulkCapacity)
{
    NACHOS_ASSERT(interactiveCapacity > 0 && bulkCapacity > 0,
                  "job queue needs capacity >= 1 per class");
}

bool
JobQueue::tryPush(std::shared_ptr<Job> job,
                  const std::function<void()> &onAdmit)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (closed_)
            return false;
        std::deque<std::shared_ptr<Job>> &ring =
            job->spec.klass == AdmitClass::Bulk ? bulk_ : interactive_;
        const size_t capacity = job->spec.klass == AdmitClass::Bulk
                                    ? bulkCapacity_
                                    : interactiveCapacity_;
        if (ring.size() >= capacity)
            return false;
        ring.push_back(std::move(job));
        if (onAdmit)
            onAdmit();
    }
    cv_.notify_one();
    return true;
}

size_t
JobQueue::claim(std::vector<std::shared_ptr<Job>> &out, uint32_t maxLanes,
                std::chrono::milliseconds wait)
{
    out.clear();
    std::unique_lock<std::mutex> lock(mutex_);
    const auto deadline = std::chrono::steady_clock::now() + wait;
    while (true) {
        // Interactive first: claimed singly, never coalesced.
        if (claimInteractiveLocked(out))
            return 1;

        while (!bulk_.empty()) {
            std::shared_ptr<Job> leader = std::move(bulk_.front());
            bulk_.pop_front();
            if (!leader->tryTransition(JobState::Queued,
                                       JobState::Running))
                continue; // corpse
            out.push_back(std::move(leader));
            const Job &lead = *out.front();
            if (!lead.coalescible())
                return 1;

            uint32_t lanes = backendLanes(lead.spec.request);
            for (auto it = bulk_.begin();
                 it != bulk_.end() && lanes < maxLanes;) {
                Job &cand = **it;
                if (cand.state.load() != JobState::Queued) {
                    it = bulk_.erase(it); // corpse
                    continue;
                }
                // sameRegionWork is deliberately machine-independent
                // (front-end results are shared across machine sweeps),
                // so coalescing separately requires an identical
                // machine config: a group's lanes then reuse the
                // shard's pooled hierarchy without rebuilding it.
                if (!cand.coalescible() ||
                    !sameRegionWork(*lead.spec.info, lead.spec.request,
                                    *cand.spec.info, cand.spec.request) ||
                    !(cand.spec.request.machine ==
                      lead.spec.request.machine)) {
                    ++it; // keeps its place for a later group
                    continue;
                }
                const uint32_t candLanes = backendLanes(cand.spec.request);
                if (lanes + candLanes > maxLanes) {
                    ++it;
                    continue;
                }
                if (!cand.tryTransition(JobState::Queued,
                                        JobState::Running)) {
                    it = bulk_.erase(it); // raced into a final state
                    continue;
                }
                lanes += candLanes;
                out.push_back(std::move(*it));
                it = bulk_.erase(it);
            }
            return out.size();
        }

        if (closed_)
            return 0;
        if (wait.count() <= 0)
            return 0;
        if (!cv_.wait_until(lock, deadline, [this] {
                return closed_ || !interactive_.empty() ||
                       !bulk_.empty();
            }))
            return 0; // timed out still empty
    }
}

size_t
JobQueue::claimInteractive(std::vector<std::shared_ptr<Job>> &out)
{
    out.clear();
    std::lock_guard<std::mutex> lock(mutex_);
    return claimInteractiveLocked(out) ? 1 : 0;
}

bool
JobQueue::claimInteractiveLocked(std::vector<std::shared_ptr<Job>> &out)
{
    while (!interactive_.empty()) {
        std::shared_ptr<Job> job = std::move(interactive_.front());
        interactive_.pop_front();
        // The CAS happens while we still hold the ring lock, so a
        // claimed job can never be seen as Queued by the watchdog.
        if (job->tryTransition(JobState::Queued, JobState::Running)) {
            out.push_back(std::move(job));
            return true;
        }
        // Corpse (cancelled/timed out while queued): drop it.
    }
    return false;
}

bool
JobQueue::cancel(const std::shared_ptr<Job> &job)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::deque<std::shared_ptr<Job>> &ring =
        job->spec.klass == AdmitClass::Bulk ? bulk_ : interactive_;
    auto it = std::find(ring.begin(), ring.end(), job);
    if (it == ring.end())
        return false;
    if (!job->tryTransition(JobState::Queued, JobState::Cancelled))
        return false;
    ring.erase(it);
    return true;
}

void
JobQueue::close()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        closed_ = true;
    }
    cv_.notify_all();
}

size_t
JobQueue::depth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return interactive_.size() + bulk_.size();
}

size_t
JobQueue::depth(AdmitClass klass) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return klass == AdmitClass::Bulk ? bulk_.size()
                                     : interactive_.size();
}

bool
JobQueue::closed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
}

} // namespace nachos
