#include "runtime/harness.h"

namespace kd::runtime {

ControllerHarness::ControllerHarness(Env& env, Mode mode, Options options)
    : env_(env),
      mode_(mode),
      options_(std::move(options)),
      api_(env.engine, env.apiserver, options_.client_id, options_.qps,
           options_.burst, options_.api_metrics ? &env.metrics : nullptr),
      loop_(env.engine, env.cost, options_.name, &env.metrics),
      endpoint_(env.network, options_.address) {
  // One runtime lane per controller instance: reconciles, message
  // handlers, and lifecycle hooks all execute inside it, and the
  // tracked caches are bound to it (see sim/lane_checker.h).
  lane_ = env_.engine.lane_checker().RegisterLane(options_.name);
  loop_.SetLane(lane_);
  endpoint_.SetLane(lane_);
  api_.SetLane(lane_);
  // A fired crash seam surprise-shuts this controller down. The crash
  // is deferred one engine step: the seam fires from inside a
  // HierarchyClient/Server message handler or a tombstone Add — code
  // owned by the very objects Crash() destroys. The session capture
  // dead-letters the deferred crash if an intervening Crash()/Restart()
  // already happened.
  auto surprise_shutdown = [this] {
    const std::uint64_t armed_session = session_;
    env_.engine.ScheduleAfter(0, [this, armed_session] {
      if (!crashed_ && session_ == armed_session) Crash();
    });
  };
  handshake_fault_.set_on_fire(surprise_shutdown);
  tombstone_fault_.set_on_fire(surprise_shutdown);
  tombstones_.set_fault(&tombstone_fault_);
}

ControllerHarness::~ControllerHarness() {
  for (auto& [id, link] : dynamic_downstreams_) {
    if (link.client) link.client->Stop();
  }
  if (static_downstream_) static_downstream_->Stop();
  if (upstream_) upstream_->Stop();
}

void ControllerHarness::SyncKind(ObjectCache& cache, std::string kind,
                                 When when, std::function<void()> on_synced) {
  TrackCache(cache);
  if (!ModeMatches(when)) return;
  syncs_.push_back({std::move(kind), std::move(on_synced),
                    std::make_unique<Informer>(api_, env_.apiserver, cache,
                                               &env_.metrics)});
}

Informer* ControllerHarness::WatchFiltered(ObjectCache& cache,
                                           std::string kind,
                                           apiserver::WatchFilter filter,
                                           When when) {
  TrackCache(cache);
  if (!ModeMatches(when)) return nullptr;
  syncs_.push_back({std::move(kind), nullptr,
                    std::make_unique<Informer>(api_, env_.apiserver, cache,
                                               &env_.metrics,
                                               std::move(filter))});
  return syncs_.back().informer.get();
}

void ControllerHarness::SetReconciler(ControlLoop::Reconciler reconcile) {
  loop_.SetReconciler(std::move(reconcile));
}

void ControllerHarness::ServeUpstream(UpstreamSpec spec) {
  have_upstream_spec_ = true;
  upstream_spec_ = std::move(spec);
}

void ControllerHarness::ConnectDownstream(DownstreamSpec spec) {
  have_downstream_spec_ = true;
  downstream_spec_ = std::move(spec);
}

void ControllerHarness::TrackCache(ObjectCache& cache) {
  for (ObjectCache* tracked : tracked_caches_) {
    if (tracked == &cache) return;
  }
  cache.BindLane(&env_.engine.lane_checker(), lane_,
                 options_.name + ".cache");
  tracked_caches_.push_back(&cache);
}

std::unique_ptr<kubedirect::HierarchyClient> ControllerHarness::MakeClient(
    DownstreamSpec spec) {
  return std::make_unique<kubedirect::HierarchyClient>(
      env_.engine, env_.cost, endpoint_, spec.peer,
      spec.cache != nullptr ? *spec.cache : scratch_, spec.kind_filter,
      std::move(spec.scope), std::move(spec.callbacks), &env_.metrics,
      &handshake_fault_);
}

void ControllerHarness::Start() {
  // Lifecycle runs in the component's own lane: informer seeding,
  // cache clears, and policy hooks count as the owner's touches even
  // when the driver (no lane) or a deferred crash event triggers them.
  sim::LaneScope lane_scope(env_.engine.lane_checker(), lane_);
  if (crashed_) {
    // Restart after a crash: injected faults die with the process, and
    // the client's fault counters zero like a fresh exporter's
    // (per-incarnation counts; lifetime totals such as
    // "apiserver.crashes" live outside any process and survive).
    handshake_fault_.Disarm();
    tombstone_fault_.Disarm();
    env_.metrics.ResetCounterPrefix("client." + options_.client_id + ".");
  }
  crashed_ = false;
  ++session_;
  if (have_upstream_spec_ && upstream_spec_.downstream_first) {
    upstream_started_ = false;
    baseline_synced_ = false;
  }

  for (SyncBinding& binding : syncs_) {
    binding.informer->Start(binding.kind, binding.on_synced);
  }

  if (mode_ == Mode::kKd && have_upstream_spec_) {
    upstream_ = std::make_unique<kubedirect::HierarchyServer>(
        env_.engine, env_.cost, endpoint_,
        upstream_spec_.cache != nullptr ? *upstream_spec_.cache : scratch_,
        upstream_spec_.kind_filter, upstream_spec_.callbacks, &env_.metrics,
        &handshake_fault_);
    if (!upstream_spec_.downstream_first) {
      upstream_started_ = true;
      upstream_->Start();
    }
  }
  if (mode_ == Mode::kKd && have_downstream_spec_) {
    static_downstream_ = MakeClient(downstream_spec_);
    static_downstream_->Start();
  }
  if (have_upstream_spec_ && upstream_spec_.downstream_first) {
    MaybeStartUpstream();
  }
  if (on_start_) on_start_();
}

void ControllerHarness::Crash() {
  sim::LaneScope lane_scope(env_.engine.lane_checker(), lane_);
  crashed_ = true;
  if (on_crash_) on_crash_();
  // A dead process cannot re-send: its client's queued retries must
  // not land writes after the crash (ghost records no incarnation
  // owns). In-flight chains complete with kCancelled instead.
  api_.AbandonPending();
  tombstones_.Clear();  // session-scoped intents (§4.3)
  for (ObjectCache* cache : tracked_caches_) cache->Clear();
  loop_.Clear();
  for (SyncBinding& binding : syncs_) binding.informer->Stop();
  // Crash the endpoint first: connections die silently (no FIN), the
  // peers detect the loss via keepalive timeout — then tear down the
  // link objects locally.
  env_.network.CrashEndpoint(endpoint_.address());
  for (auto& [id, link] : dynamic_downstreams_) {
    if (link.client) link.client->Stop();
  }
  dynamic_downstreams_.clear();
  downstream_exempt_.clear();
  unsettled_downstreams_ = 0;
  if (static_downstream_) {
    static_downstream_->Stop();
    static_downstream_.reset();
  }
  if (upstream_) {
    upstream_->Stop();
    upstream_.reset();
  }
  upstream_started_ = false;
}

void ControllerHarness::EnsureDownstream(const std::string& id,
                                         DownstreamSpec spec) {
  DynamicDownstream& slot = dynamic_downstreams_[id];
  if (slot.client) return;
  // The gate re-evaluates whenever a fan-out link completes its
  // handshake; policy logic runs after (Listen is synchronous, so the
  // relative order is unobservable).
  auto user_ready = spec.callbacks.on_ready;
  spec.callbacks.on_ready =
      [this, id, user_ready](const kubedirect::ChangeSet& changes) {
        RecountDownstream(id);
        MaybeStartUpstream();
        if (user_ready) user_ready(changes);
      };
  auto user_down = spec.callbacks.on_down;
  spec.callbacks.on_down = [this, id, user_down] {
    RecountDownstream(id);
    if (user_down) user_down();
  };
  slot.client = MakeClient(std::move(spec));
  RecountDownstream(id);
  slot.client->Start();
}

kubedirect::HierarchyClient* ControllerHarness::downstream(
    const std::string& id) {
  auto it = dynamic_downstreams_.find(id);
  return it == dynamic_downstreams_.end() ? nullptr : it->second.client.get();
}

bool ControllerHarness::DownstreamReady(const std::string& id) const {
  auto it = dynamic_downstreams_.find(id);
  return it != dynamic_downstreams_.end() && it->second.client != nullptr &&
         it->second.client->ready();
}

void ControllerHarness::SetDownstreamExempt(const std::string& id,
                                            bool exempt) {
  downstream_exempt_[id] = exempt;
  RecountDownstream(id);
}

bool ControllerHarness::DownstreamExempt(const std::string& id) const {
  auto it = downstream_exempt_.find(id);
  return it != downstream_exempt_.end() && it->second;
}

void ControllerHarness::RecountDownstream(const std::string& id) {
  auto it = dynamic_downstreams_.find(id);
  if (it == dynamic_downstreams_.end()) return;
  DynamicDownstream& link = it->second;
  const bool unsettled = !DownstreamExempt(id) && !DownstreamReady(id);
  if (unsettled == link.unsettled) return;
  link.unsettled = unsettled;
  if (unsettled) {
    ++unsettled_downstreams_;
  } else {
    --unsettled_downstreams_;
  }
}

void ControllerHarness::MaybeStartUpstream() {
  if (upstream_started_ || !upstream_ || crashed_) return;
  if (!DownstreamsSettled()) return;
  upstream_started_ = true;
  upstream_->Start();
}

}  // namespace kd::runtime
