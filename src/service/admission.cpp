#include "service/admission.hpp"

#include <chrono>
#include <string_view>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "service/broker.hpp"

namespace a2a::service {

using Clock = std::chrono::steady_clock;

const char* to_string(ServiceOutcome outcome) {
  switch (outcome) {
    case ServiceOutcome::kServed: return "served";
    case ServiceOutcome::kRejectedQueueFull: return "rejected-queue-full";
    case ServiceOutcome::kShedDeadline: return "shed-deadline";
    case ServiceOutcome::kFailed: return "failed";
  }
  return "?";
}

AdmissionQueue::AdmissionQueue(ScheduleBroker* broker, AdmissionOptions options)
    : broker_(broker), options_(options) {
  A2A_ASSERT(broker_ != nullptr, "AdmissionQueue needs a broker");
}

ServiceReply AdmissionQueue::serve(const DiGraph& topology,
                                   const Fabric& fabric,
                                   ToolchainOptions options,
                                   double deadline_ms) {
  const auto start = Clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  ServiceReply reply;
  const auto finish = [&](ServiceOutcome outcome, std::string error = {}) {
    reply.outcome = outcome;
    reply.error = std::move(error);
    reply.total_seconds = elapsed();
    A2A_HISTOGRAM("service.request_seconds")
        .observe_seconds(reply.total_seconds);
    return reply;
  };

  if (deadline_ms <= 0.0) deadline_ms = options_.default_deadline_ms;
  const double deadline_s = deadline_ms > 0.0 ? deadline_ms / 1000.0 : 0.0;

  try {
    reply.fingerprint = schedule_fingerprint(topology, fabric, options);

    // Hit fast path — never queued, never sheddable: the lookup is cheaper
    // than the admission bookkeeping itself.
    if (auto view = broker_->try_lookup(reply.fingerprint)) {
      reply.view = *view;
      reply.hit = true;
      A2A_COUNTER("service.served").inc();
      A2A_HISTOGRAM("service.hit_seconds").observe_seconds(elapsed());
      return finish(ServiceOutcome::kServed);
    }

    // Miss: bounded concurrency, then upfront deadline shedding.
    {
      std::lock_guard lock(mutex_);
      if (pending_ >= options_.max_pending) {
        A2A_COUNTER("service.rejected_queue_full").inc();
        return finish(ServiceOutcome::kRejectedQueueFull,
                      "miss queue full (" + std::to_string(pending_) +
                          " in service)");
      }
      // Shed upfront when recent syntheses average longer than the whole
      // budget; otherwise the deadline bounds the synthesis itself.
      if (deadline_s > 0.0 && ewma_synth_seconds_ > deadline_s) {
        A2A_COUNTER("service.shed_deadline").inc();
        return finish(ServiceOutcome::kShedDeadline,
                      "deadline unmeetable: recent syntheses average " +
                          std::to_string(ewma_synth_seconds_) +
                          " s against a " + std::to_string(deadline_s) +
                          " s budget");
      }
      ++pending_;
      A2A_GAUGE("service.pending").add(1);
    }
    struct PendingGuard {
      AdmissionQueue* q;
      ~PendingGuard() {
        std::lock_guard lock(q->mutex_);
        --q->pending_;
        A2A_GAUGE("service.pending").sub(1);
      }
    } pending_guard{this};

    // Thread the remaining budget into the pipeline's cooperative
    // time-limit so the synthesis gives up AT the deadline rather than
    // being abandoned by it. A caller-set tighter limit wins.
    double remaining_s = 0.0;
    if (deadline_s > 0.0) {
      remaining_s = deadline_s - elapsed();
      if (remaining_s <= 0.0) {
        A2A_COUNTER("service.shed_deadline").inc();
        return finish(ServiceOutcome::kShedDeadline, "deadline expired");
      }
      if (options.mcf.lp.time_limit_s <= 0.0 ||
          options.mcf.lp.time_limit_s > remaining_s) {
        options.mcf.lp.time_limit_s = remaining_s;
      }
    }

    const BrokerResult result = broker_->request(
        reply.fingerprint, topology, fabric, options, remaining_s);
    reply.view = result.view;
    reply.hit = result.hit;
    reply.coalesced = result.coalesced;
    if (result.synth_seconds > 0.0) {
      std::lock_guard lock(mutex_);
      ewma_synth_seconds_ =
          ewma_synth_seconds_ == 0.0
              ? result.synth_seconds
              : 0.7 * ewma_synth_seconds_ + 0.3 * result.synth_seconds;
    }
    A2A_COUNTER("service.served").inc();
    A2A_HISTOGRAM("service.miss_seconds").observe_seconds(elapsed());
    return finish(ServiceOutcome::kServed);
  } catch (const SolverError& e) {
    // The cooperative time-limit surfaces as a SolverError naming
    // "time-limit" (LpStatus::kTimeLimit's to_string); with a deadline set
    // that is a shed, not a pipeline failure.
    const bool timed_out =
        std::string_view(e.what()).find("time-limit") != std::string_view::npos;
    if (deadline_s > 0.0 && (timed_out || elapsed() >= deadline_s)) {
      A2A_COUNTER("service.shed_deadline").inc();
      return finish(ServiceOutcome::kShedDeadline, e.what());
    }
    A2A_COUNTER("service.failed").inc();
    return finish(ServiceOutcome::kFailed, e.what());
  } catch (const std::exception& e) {
    A2A_COUNTER("service.failed").inc();
    return finish(ServiceOutcome::kFailed, e.what());
  }
}

std::size_t AdmissionQueue::pending() const {
  std::lock_guard lock(mutex_);
  return pending_;
}

double AdmissionQueue::ewma_synth_seconds() const {
  std::lock_guard lock(mutex_);
  return ewma_synth_seconds_;
}

}  // namespace a2a::service
