#include "cpu/core.hh"

#include <algorithm>

#include "util/logging.hh"

namespace hdmr::cpu
{

Core::Core(sim::EventQueue &events, unsigned id, CoreConfig config,
           std::unique_ptr<wl::AccessStream> stream,
           MemoryInterface &memory, std::function<void(unsigned)> on_done)
    : events_(events), id_(id), config_(config),
      cyclePeriod_(util::mhzToPeriod(config.freqMhz)),
      stream_(std::move(stream)), memory_(memory),
      onDone_(std::move(on_done)), processEvent_(this)
{
    hdmr_assert(config_.issueWidth >= 1);
    hdmr_assert(config_.robSize >= 1);
}

Core::~Core()
{
    if (processEvent_.scheduled())
        events_.deschedule(&processEvent_);
}

void
Core::start(Tick when)
{
    events_.schedule(&processEvent_, when);
}

bool
Core::blocked() const
{
    if (window_.size() >= config_.maxOutstandingMisses)
        return true;
    if (!window_.empty() &&
        instIssued_ - window_.front().instPosition >=
            config_.robSize) {
        return true;
    }
    return false;
}

void
Core::finish()
{
    done_ = true;
    stats_.finished = true;
    stats_.finishTick = now_;
    if (onDone_)
        onDone_(id_);
}

void
Core::onMissComplete(std::uint64_t miss_index, Tick when)
{
    // miss_index is a monotonically increasing sequence number; the
    // front of the window carries the oldest live index.
    const std::uint64_t front_index = missesRetired_;
    hdmr_assert(miss_index >= front_index &&
                miss_index - front_index < window_.size(),
                "completion for unknown miss");
    window_[miss_index - front_index].complete = true;

    if (waitingForMiss_ && !done_) {
        waitingForMiss_ = false;
        events_.schedule(&processEvent_, std::max(now_, when));
    }
}

void
Core::process()
{
    if (done_)
        return;
    const Tick start = events_.curTick();
    now_ = std::max(now_, start);

    while (true) {
        // Retire completed misses in order.
        while (!window_.empty() && window_.front().complete) {
            window_.pop_front();
            ++missesRetired_;
        }
        if (blocked()) {
            waitingForMiss_ = true;
            return;
        }

        if (!hasPendingOp_) {
            if (!stream_->next(pendingOp_)) {
                if (window_.empty()) {
                    finish();
                } else {
                    waitingForMiss_ = true;
                }
                return;
            }
            hasPendingOp_ = true;
        }

        switch (pendingOp_.kind) {
          case wl::Op::Kind::kCompute: {
            const std::uint64_t cycles =
                (pendingOp_.count + config_.issueWidth - 1) /
                config_.issueWidth;
            now_ += cycles * cyclePeriod_;
            instIssued_ += pendingOp_.count;
            stats_.instructions += pendingOp_.count;
            hasPendingOp_ = false;
            break;
          }

          case wl::Op::Kind::kLoad: {
            if (!memory_.canAcceptMiss(id_)) {
                // Read queue full downstream: retry shortly.
                events_.reschedule(&processEvent_, now_ + 10000);
                return;
            }
            const std::uint64_t miss_index =
                missesRetired_ + window_.size();
            const CacheOutcome outcome =
                memory_.load(id_, pendingOp_.address, now_, miss_index);
            ++instIssued_;
            ++stats_.instructions;
            ++stats_.loads;
            if (outcome.needsDram) {
                window_.push_back(Miss{instIssued_, false});
                ++stats_.llcMisses;
            } else {
                now_ += outcome.latency;
            }
            hasPendingOp_ = false;
            break;
          }

          case wl::Op::Kind::kStore: {
            const Tick cost =
                memory_.store(id_, pendingOp_.address, now_);
            now_ += cost;
            ++instIssued_;
            ++stats_.instructions;
            ++stats_.stores;
            hasPendingOp_ = false;
            break;
          }

          case wl::Op::Kind::kComm:
            now_ += pendingOp_.duration;
            stats_.commTicks += pendingOp_.duration;
            hasPendingOp_ = false;
            break;
        }

        if (now_ - start > config_.batchQuantum) {
            events_.schedule(&processEvent_, now_);
            return;
        }
    }
}

} // namespace hdmr::cpu
