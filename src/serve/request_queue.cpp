#include "serve/request_queue.hpp"

#include <cmath>
#include <utility>

namespace ts::serve {

const char* to_string(ServeErrorCode code) {
  switch (code) {
    case ServeErrorCode::kNone: return "none";
    case ServeErrorCode::kRetriesExhausted: return "retries_exhausted";
    case ServeErrorCode::kNoHealthyDevice: return "no_healthy_device";
    case ServeErrorCode::kDeadlineHopeless: return "deadline_hopeless";
  }
  return "?";
}

const StreamResult& StreamHandle::value() const {
  const StreamResult& r = fut_.get();
  if (!r.ok())
    throw ServeError(
        r.error, "request " + std::to_string(r.id) + " failed (" +
                     std::string(to_string(r.error)) +
                     (r.error_detail.empty() ? "" : "): " + r.error_detail));
  return r;
}

RequestQueue::RequestQueue(QueueOptions opt) : opt_(opt) {
  if (opt_.max_depth == 0)
    throw std::invalid_argument("RequestQueue: max_depth must be >= 1");
}

StreamHandle RequestQueue::admit_locked(SparseTensor&& input,
                                        double arrival_seconds,
                                        Priority priority, int model) {
  PendingRequest req;
  req.id = next_id_++;
  req.input = std::move(input);
  req.arrival_seconds = arrival_seconds;
  req.priority = priority;
  req.model = model;
  StreamHandle handle(req.id, req.promise.get_future().share());
  last_arrival_ = arrival_seconds;
  queue_.push_back(std::move(req));
  ++class_depth_[static_cast<std::size_t>(priority)];
  cv_.notify_one();
  return handle;
}

void RequestQueue::count_rejection_locked(int model) {
  ++rejected_;
  const auto slot = static_cast<std::size_t>(model);
  if (model_rejected_.size() <= slot) model_rejected_.resize(slot + 1, 0);
  ++model_rejected_[slot];
}

bool RequestQueue::full_locked(Priority priority) const {
  const std::size_t cap =
      opt_.class_max_depth[static_cast<std::size_t>(priority)];
  if (cap > 0 && class_depth_[static_cast<std::size_t>(priority)] >= cap)
    return true;
  return queue_.size() >= opt_.max_depth;
}

bool RequestQueue::preempt_locked(Priority incoming) {
  if (!opt_.priority_preemption) return false;
  // Victim: the lowest class present; among those, the newest request
  // (least sunk wait). Deterministic — pure queue state.
  std::ptrdiff_t victim = -1;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    if (victim < 0 ||
        queue_[i].priority >=
            queue_[static_cast<std::size_t>(victim)].priority)
      victim = static_cast<std::ptrdiff_t>(i);
  }
  if (victim < 0) return false;
  PendingRequest& v = queue_[static_cast<std::size_t>(victim)];
  if (v.priority <= incoming) return false;  // nothing strictly lower
  v.promise.set_exception(std::make_exception_ptr(AdmissionError(
      "RequestQueue: request " + std::to_string(v.id) +
      " preempted by a higher-priority submission under full queue")));
  --class_depth_[static_cast<std::size_t>(v.priority)];
  const int victim_model = v.model;
  queue_.erase(queue_.begin() + victim);
  count_rejection_locked(victim_model);
  space_cv_.notify_all();  // the victim's class slot freed
  return true;
}

namespace {

/// The caller-bug checks every submission path makes before admission
/// (std::invalid_argument, never counted as a rejection). Priority is an
/// index into per-class accounting downstream; an out-of-enumerator
/// value (a well-formed enum can hold one) must die here, not corrupt
/// the scheduler's per-class vectors. Model ids index per-model ledgers
/// (here and in StreamStats); the upper bound is the serving session's
/// registry size, which the queue doesn't know, so the serving loop
/// checks it when draining.
void validate_submission(const char* who, double arrival_seconds,
                         Priority priority, int model) {
  const int cls = static_cast<int>(priority);
  if (cls < 0 || cls >= kNumPriorityClasses)
    throw std::invalid_argument(
        std::string(who) + ": priority class " + std::to_string(cls) +
        " outside [0, " + std::to_string(kNumPriorityClasses) + ")");
  if (model < 0)
    throw std::invalid_argument(std::string(who) + ": model id " +
                                std::to_string(model) + " must be >= 0");
  if (!std::isfinite(arrival_seconds) || arrival_seconds < 0)
    throw std::invalid_argument(
        std::string(who) + ": arrival time must be finite and >= 0");
}

}  // namespace

void RequestQueue::check_arrival_order_locked(const char* who,
                                              double arrival_seconds) const {
  if (next_id_ > 0 && arrival_seconds < last_arrival_)
    throw std::invalid_argument(
        std::string(who) + ": arrival times must be non-decreasing (got " +
        std::to_string(arrival_seconds) + " after " +
        std::to_string(last_arrival_) + ")");
}

StreamHandle RequestQueue::submit(SparseTensor input, double arrival_seconds,
                                  Priority priority, int model) {
  MutexLock lock(mu_);
  validate_submission("RequestQueue::submit", arrival_seconds, priority,
                      model);
  check_arrival_order_locked("RequestQueue::submit", arrival_seconds);
  if (closed_) {
    count_rejection_locked(model);
    throw AdmissionError("RequestQueue::submit: queue is closed");
  }
  const std::size_t cls = static_cast<std::size_t>(priority);
  if (opt_.class_max_depth[cls] > 0 &&
      class_depth_[cls] >= opt_.class_max_depth[cls]) {
    count_rejection_locked(model);
    throw AdmissionError(
        "RequestQueue::submit: class " +
        std::string(to_string(priority)) + " depth limit reached (" +
        std::to_string(opt_.class_max_depth[cls]) + " pending)");
  }
  if (queue_.size() >= opt_.max_depth && !preempt_locked(priority)) {
    count_rejection_locked(model);
    throw AdmissionError(
        "RequestQueue::submit: queue depth limit reached (" +
        std::to_string(opt_.max_depth) + " pending)");
  }
  return admit_locked(std::move(input), arrival_seconds, priority, model);
}

std::optional<StreamHandle> RequestQueue::try_submit(
    SparseTensor input, double arrival_seconds, Priority priority,
    int model) {
  MutexLock lock(mu_);
  validate_submission("RequestQueue::try_submit", arrival_seconds, priority,
                      model);
  check_arrival_order_locked("RequestQueue::try_submit", arrival_seconds);
  const std::size_t cls = static_cast<std::size_t>(priority);
  if (closed_ ||
      (opt_.class_max_depth[cls] > 0 &&
       class_depth_[cls] >= opt_.class_max_depth[cls]) ||
      (queue_.size() >= opt_.max_depth && !preempt_locked(priority))) {
    count_rejection_locked(model);
    return std::nullopt;
  }
  return admit_locked(std::move(input), arrival_seconds, priority, model);
}

StreamHandle RequestQueue::submit_wait(SparseTensor input,
                                       double arrival_seconds,
                                       Priority priority, int model) {
  MutexLock lock(mu_);
  validate_submission("RequestQueue::submit_wait", arrival_seconds,
                      priority, model);
  // Backpressure wait: sleeps while the queue (or the class) is full,
  // woken by wait_pop drains, preemption evictions, and close(). close()
  // turns the wait into a typed rejection — a blocked producer can never
  // deadlock a shutdown.
  while (!closed_ && full_locked(priority)) space_cv_.wait(mu_);
  if (closed_) {
    count_rejection_locked(model);
    throw AdmissionError(
        "RequestQueue::submit_wait: queue closed while waiting for a "
        "slot");
  }
  // Check monotonicity at admission: another producer may have admitted
  // a later stamp while this one was blocked.
  check_arrival_order_locked("RequestQueue::submit_wait", arrival_seconds);
  return admit_locked(std::move(input), arrival_seconds, priority, model);
}

void RequestQueue::close() {
  MutexLock lock(mu_);
  closed_ = true;
  cv_.notify_all();
  space_cv_.notify_all();
}

bool RequestQueue::closed() const {
  MutexLock lock(mu_);
  return closed_;
}

std::size_t RequestQueue::depth() const {
  MutexLock lock(mu_);
  return queue_.size();
}

std::size_t RequestQueue::submitted() const {
  MutexLock lock(mu_);
  return next_id_;
}

std::size_t RequestQueue::rejected() const {
  MutexLock lock(mu_);
  return rejected_;
}

std::vector<std::size_t> RequestQueue::rejected_by_model() const {
  MutexLock lock(mu_);
  return model_rejected_;
}

bool RequestQueue::wait_pop(PendingRequest& out) {
  MutexLock lock(mu_);
  while (!closed_ && queue_.empty()) cv_.wait(mu_);
  if (queue_.empty()) return false;  // closed and drained
  out = std::move(queue_.front());
  queue_.pop_front();
  --class_depth_[static_cast<std::size_t>(out.priority)];
  space_cv_.notify_all();  // a slot freed for blocked submit_wait callers
  return true;
}

}  // namespace ts::serve
