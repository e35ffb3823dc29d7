// KdLink: message framing + batching over one simulated TCP
// connection. Both directions of a controller pair (forward state,
// backward invalidations, §3.1) run over a single bidirectional link.
//
// Outbound messages accumulate into a batch that flushes when it
// reaches cost.kd_batch messages or when the batch window elapses;
// handshake traffic flushes immediately. A flush hands the batch
// itself to the connection as the payload body, charged at
// SerializedBatchSize() — the exact length SerializeBatch() would
// produce — so the wire costs what the JSON frame would, but nothing
// is encoded or parsed. The receiver delivers the sender's messages
// one at a time, each charged the per-message processing cost plus its
// share of the batch's deserialization, in FIFO order.
#pragma once

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/cost_model.h"
#include "common/lane.h"
#include "common/metrics.h"
#include "kubedirect/message.h"
#include "net/network.h"
#include "sim/engine.h"

namespace kd::kubedirect {

class KD_LANE_SEAM KdLink : public std::enable_shared_from_this<KdLink> {
 public:
  KdLink(sim::Engine& engine, const CostModel& cost,
         net::ConnHandlePtr conn, MetricsRecorder* metrics = nullptr);

  // Installs receive callbacks and begins delivering messages. Must be
  // called once right after construction (two-phase so the owner can
  // capture a shared_ptr).
  void Bind(std::function<void(const WireMessage&)> on_message,
            std::function<void()> on_disconnect);

  bool connected() const { return conn_ && conn_->connected(); }

  // Queues a message for the next batch flush.
  void Send(WireMessage msg);
  // Sends immediately, flushing anything pending first (handshake and
  // synchronous-preemption traffic).
  void SendNow(WireMessage msg);

  void Close();

 private:
  using Batch = std::vector<WireMessage>;

  void Flush();
  void ScheduleFlush();
  void OnPayload(const net::Payload& payload);
  void DeliverNext();

  sim::Engine& engine_;
  const CostModel& cost_;
  net::ConnHandlePtr conn_;
  MetricsRecorder::Counter messages_sent_;  // "kd_messages_sent"
  MetricsRecorder::Counter bytes_sent_;     // "kd_bytes_sent"

  std::function<void(const WireMessage&)> on_message_;
  std::function<void()> on_disconnect_;

  Batch pending_;
  bool flush_scheduled_ = false;
  std::uint64_t flush_generation_ = 0;
  Time egress_free_ = 0;  // sender-side serialization pipeline

  // Inbound processing pipeline: one message at a time, each paying
  // kd_message_process plus its amortized deserialization share. An
  // entry names its message by position in the received batch.
  struct Inbound {
    std::shared_ptr<const Batch> batch;
    std::size_t index;
    Duration deser;
  };
  std::deque<Inbound> inbound_;
  bool delivering_ = false;
  bool closed_ = false;
};

using KdLinkPtr = std::shared_ptr<KdLink>;

}  // namespace kd::kubedirect
