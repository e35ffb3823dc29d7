#include "kubedirect/link.h"

#include "common/check.h"

namespace kd::kubedirect {

KdLink::KdLink(sim::Engine& engine, const CostModel& cost,
               net::ConnHandlePtr conn, MetricsRecorder* metrics)
    : engine_(engine), cost_(cost), conn_(std::move(conn)),
      metrics_(metrics) {}

void KdLink::Bind(std::function<void(WireMessage)> on_message,
                  std::function<void()> on_disconnect) {
  on_message_ = std::move(on_message);
  on_disconnect_ = std::move(on_disconnect);
  auto weak = weak_from_this();
  conn_->set_on_message([weak](net::Payload payload) {
    if (auto self = weak.lock()) self->OnPayload(payload);
  });
  conn_->set_on_disconnect([weak] {
    auto self = weak.lock();
    if (!self || self->closed_) return;
    self->closed_ = true;
    self->pending_.clear();
    if (self->on_disconnect_) self->on_disconnect_();
  });
}

void KdLink::Send(WireMessage msg) {
  if (closed_ || !connected()) return;  // best-effort: dropped like in-flight
  pending_.push_back(std::move(msg));
  if (static_cast<int>(pending_.size()) >= std::max(1, cost_.kd_batch)) {
    Flush();
    return;
  }
  ScheduleFlush();
}

void KdLink::SendNow(WireMessage msg) {
  if (closed_ || !connected()) return;
  pending_.push_back(std::move(msg));
  Flush();
}

void KdLink::ScheduleFlush() {
  if (flush_scheduled_) return;
  flush_scheduled_ = true;
  const std::uint64_t generation = flush_generation_;
  auto weak = weak_from_this();
  engine_.ScheduleAfter(cost_.kd_batch_window, [weak, generation] {
    auto self = weak.lock();
    if (!self || generation != self->flush_generation_) return;
    self->flush_scheduled_ = false;
    self->Flush();
  });
}

void KdLink::Flush() {
  ++flush_generation_;  // invalidates any scheduled flush event
  flush_scheduled_ = false;
  if (pending_.empty() || closed_ || !connected()) {
    pending_.clear();
    return;
  }
  const std::size_t bytes = SerializedBatchSize(pending_);
  if (metrics_) {
    metrics_->Count("kd_messages_sent",
                    static_cast<std::int64_t>(pending_.size()));
    metrics_->Count("kd_bytes_sent", static_cast<std::int64_t>(bytes));
  }
  net::Payload payload = net::Payload::Of(std::move(pending_), bytes);
  pending_.clear();  // moved-from: empty it for the next batch
  // Sender-side serialization: CPU work, so consecutive batches queue
  // behind each other — negligible for pointer-compressed messages,
  // the dominant cost in the full-object ablation (Fig. 14).
  const Duration ser = static_cast<Duration>(
      static_cast<double>(bytes) * cost_.serialize_ns_per_byte);
  if (ser <= 0) {
    conn_->Send(std::move(payload)).ok();  // failure == in-flight drop
    return;
  }
  const Time send_at = std::max(engine_.now(), egress_free_) + ser;
  egress_free_ = send_at;
  auto weak = weak_from_this();
  engine_.ScheduleAt(send_at, [weak, payload = std::move(payload)]() mutable {
    auto self = weak.lock();
    if (!self || self->closed_ || !self->connected()) return;
    self->conn_->Send(std::move(payload)).ok();
  });
}

void KdLink::OnPayload(const net::Payload& payload) {
  std::shared_ptr<const Batch> batch = payload.body<Batch>();
  KD_CHECK(batch != nullptr, "KdLink received a payload that is not a batch");
  // Receiver-side deserialization, amortized per message in the batch.
  const Duration deser = static_cast<Duration>(
      static_cast<double>(payload.bytes()) * cost_.serialize_ns_per_byte /
      static_cast<double>(std::max<std::size_t>(batch->size(), 1)));
  for (std::size_t i = 0; i < batch->size(); ++i) {
    inbound_.push_back({batch, i, deser});
  }
  if (!delivering_) DeliverNext();
}

void KdLink::DeliverNext() {
  if (inbound_.empty() || closed_) {
    delivering_ = false;
    return;
  }
  delivering_ = true;
  auto weak = weak_from_this();
  const Duration cost = cost_.kd_message_process + inbound_.front().deser;
  engine_.ScheduleAfter(cost, [weak] {
    auto self = weak.lock();
    if (!self || self->closed_) return;
    if (self->inbound_.empty()) {
      self->delivering_ = false;
      return;
    }
    const Inbound next = std::move(self->inbound_.front());
    self->inbound_.pop_front();
    if (self->on_message_) self->on_message_((*next.batch)[next.index]);
    self->DeliverNext();
  });
}

void KdLink::Close() {
  if (closed_) return;
  closed_ = true;
  pending_.clear();
  inbound_.clear();
  if (conn_) conn_->Close();
}

}  // namespace kd::kubedirect
