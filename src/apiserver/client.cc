#include "apiserver/client.h"

namespace kd::apiserver {

ApiClient::ApiClient(sim::Engine& engine, ApiServer& server,
                     std::string client_name, double qps, double burst,
                     MetricsRecorder* metrics, RetryPolicy retry)
    : engine_(engine),
      server_(server),
      name_(std::move(client_name)),
      limiter_(engine, qps, burst),
      tracker_(metrics, name_ + ".active"),
      metrics_(metrics),
      retry_(retry) {}

void ApiClient::CountFault(const char* which) {
  if (metrics_ == nullptr) return;
  metrics_->Count("client." + name_ + "." + which);
}

Duration ApiClient::BackoffDelay(int attempt) {
  // attempt is 1-based: the delay before retry n doubles from
  // initial_backoff, capped at max_backoff.
  Duration base = retry_.initial_backoff;
  for (int i = 1; i < attempt && base < retry_.max_backoff; ++i) base *= 2;
  if (base > retry_.max_backoff) base = retry_.max_backoff;
  // Deterministic jitter from the engine's seeded stream (kdlint R1).
  const double factor =
      1.0 + retry_.jitter * (2.0 * engine_.rng().UniformDouble() - 1.0);
  Duration delay =
      static_cast<Duration>(static_cast<double>(base) * factor);
  return delay < 0 ? 0 : delay;
}

void ApiClient::Dispatch(std::size_t request_bytes,
                         std::function<void()> send) {
  limiter_.Acquire([this, request_bytes, send = std::move(send)]() mutable {
    const CostModel& cost = server_.cost();
    const Duration client_ser = static_cast<Duration>(
        static_cast<double>(request_bytes) * cost.serialize_ns_per_byte);
    engine_.ScheduleAfter(client_ser + cost.api_network_latency,
                          std::move(send));
  });
}

void ApiClient::Create(model::ApiObject obj,
                       std::function<void(StatusOr<model::ApiObject>)> done) {
  tracker_.Inc(engine_.now());
  auto finish = [this, done = std::move(done)](
                    StatusOr<model::ApiObject> r) {
    tracker_.Dec(engine_.now());
    done(std::move(r));
  };
  const std::size_t bytes = obj.SerializedSize();
  std::function<void(std::function<void(StatusOr<model::ApiObject>)>)>
      issue = [this, bytes, obj = std::move(obj)](
                  std::function<void(StatusOr<model::ApiObject>)> cb) {
        Dispatch(bytes, [this, obj, cb = std::move(cb)]() mutable {
          server_.HandleCreate(name_, obj, std::move(cb));
        });
      };
  RetryCall<StatusOr<model::ApiObject>>(std::move(issue), std::move(finish),
                                        1);
}

void ApiClient::Update(model::ApiObject obj,
                       std::function<void(StatusOr<model::ApiObject>)> done) {
  tracker_.Inc(engine_.now());
  auto finish = [this, done = std::move(done)](
                    StatusOr<model::ApiObject> r) {
    tracker_.Dec(engine_.now());
    done(std::move(r));
  };
  const std::size_t bytes = obj.SerializedSize();
  std::function<void(std::function<void(StatusOr<model::ApiObject>)>)>
      issue = [this, bytes, obj = std::move(obj)](
                  std::function<void(StatusOr<model::ApiObject>)> cb) {
        Dispatch(bytes, [this, obj, cb = std::move(cb)]() mutable {
          server_.HandleUpdate(name_, obj, std::move(cb));
        });
      };
  RetryCall<StatusOr<model::ApiObject>>(std::move(issue), std::move(finish),
                                        1);
}

void ApiClient::Delete(const std::string& kind, const std::string& name,
                       std::function<void(Status)> done) {
  tracker_.Inc(engine_.now());
  auto finish = [this, done = std::move(done)](Status s) {
    tracker_.Dec(engine_.now());
    done(std::move(s));
  };
  std::function<void(std::function<void(Status)>)> issue =
      [this, kind, name](std::function<void(Status)> cb) {
        Dispatch(kind.size() + name.size() + 64,
                 [this, kind, name, cb = std::move(cb)]() mutable {
                   server_.HandleDelete(name_, kind, name, std::move(cb));
                 });
      };
  RetryCall<Status>(std::move(issue), std::move(finish), 1);
}

void ApiClient::Get(const std::string& kind, const std::string& name,
                    std::function<void(StatusOr<model::ApiObject>)> done) {
  std::function<void(std::function<void(StatusOr<model::ApiObject>)>)>
      issue = [this, kind, name](
                  std::function<void(StatusOr<model::ApiObject>)> cb) {
        Dispatch(kind.size() + name.size() + 64,
                 [this, kind, name, cb = std::move(cb)]() mutable {
                   server_.HandleGet(name_, kind, name, std::move(cb));
                 });
      };
  RetryCall<StatusOr<model::ApiObject>>(std::move(issue), std::move(done), 1);
}

namespace {
// The retry driver is single-result; carry the revision alongside by
// pairing it into the result the driver sees.
struct ListResult {
  StatusOr<std::vector<model::ApiObject>> objects;
  std::uint64_t revision;
  StatusCode RetryCode() const {
    return objects.ok() ? StatusCode::kOk : objects.status().code();
  }
};
}  // namespace

void ApiClient::List(const std::string& kind,
                     std::function<void(StatusOr<std::vector<model::ApiObject>>,
                                        std::uint64_t)>
                         done) {
  std::function<void(std::function<void(ListResult)>)> issue =
      [this, kind](std::function<void(ListResult)> cb) {
        Dispatch(kind.size() + 64, [this, kind, cb = std::move(cb)]() mutable {
          server_.HandleList(
              name_, kind,
              [cb = std::move(cb)](
                  StatusOr<std::vector<model::ApiObject>> objects,
                  std::uint64_t revision) mutable {
                cb(ListResult{std::move(objects), revision});
              });
        });
      };
  RetryCall<ListResult>(
      std::move(issue),
      [done = std::move(done)](ListResult r) mutable {
        done(std::move(r.objects), r.revision);
      },
      1);
}

}  // namespace kd::apiserver
