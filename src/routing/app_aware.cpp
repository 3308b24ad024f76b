#include "routing/app_aware.hpp"

#include "routing/common.hpp"

namespace dfly::routing {

namespace {

/// Grow per-app vectors on demand (the policy does not know the job count).
template <typename T>
void ensure_app(std::vector<T>& v, int app_id) {
  if (app_id >= static_cast<int>(v.size())) {
    v.resize(static_cast<std::size_t>(app_id) + 1, T{});
  }
}

}  // namespace

int AppAwareUgalRouting::bias_of(int app_id) const {
  if (app_id < 0 || app_id >= static_cast<int>(bias_.size())) return 0;
  return bias_[static_cast<std::size_t>(app_id)];
}

double AppAwareUgalRouting::intensity_of(int app_id) const {
  if (app_id < 0 || app_id >= static_cast<int>(ewma_bytes_.size())) return 0.0;
  if (window_capacity_bytes_ <= 0) return 0.0;
  return ewma_bytes_[static_cast<std::size_t>(app_id)] / window_capacity_bytes_;
}

void AppAwareUgalRouting::note_injection(int app_id, int bytes, SimTime now) {
  if (now >= window_end_) {
    fold_window();
    window_end_ = now + p_.update_period;
  }
  ensure_app(window_bytes_, app_id);
  window_bytes_[static_cast<std::size_t>(app_id)] += bytes;
}

void AppAwareUgalRouting::fold_window() {
  ensure_app(ewma_bytes_, static_cast<int>(window_bytes_.size()) - 1);
  ensure_app(bias_, static_cast<int>(window_bytes_.size()) - 1);
  const double threshold = p_.aggressor_fraction * window_capacity_bytes_;
  for (std::size_t app = 0; app < window_bytes_.size(); ++app) {
    ewma_bytes_[app] = (1.0 - p_.smoothing) * ewma_bytes_[app] +
                       p_.smoothing * static_cast<double>(window_bytes_[app]);
    bias_[app] = ewma_bytes_[app] >= threshold ? p_.bandwidth_bias : p_.latency_bias;
  }
  for (std::int64_t& bytes : window_bytes_) bytes = 0;
}

RouteDecision AppAwareUgalRouting::route(Router& router, Packet& pkt) {
  const Dragonfly& topo = router.topo();
  if (window_capacity_bytes_ <= 0) {
    // Aggregate injection bandwidth x window = the byte budget one window
    // could carry if every NIC injected at line rate.
    const double bytes_per_ns = router.cfg().link_gbps / 8.0;
    window_capacity_bytes_ = static_cast<double>(topo.num_nodes()) * bytes_per_ns *
                             (static_cast<double>(p_.update_period) / kNs);
  }
  const int dst_group = topo.group_of_router(dst_router_of(router, pkt));
  if (pkt.hops == 0) {
    note_injection(pkt.app_id, pkt.bytes, router.engine().now());
  }
  if (pkt.hops == 0 && dst_group != router.group()) {
    const Candidate c =
        ugal_choose(router, pkt, p_.ugal, /*pick_router=*/true, bias_of(pkt.app_id));
    if (c.int_group >= 0) commit_valiant(pkt, c.int_group, c.int_router);
    return RouteDecision{static_cast<std::int16_t>(c.port), vc_for(pkt)};
  }
  return continue_route(router, pkt);
}

}  // namespace dfly::routing
