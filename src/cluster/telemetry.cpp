#include "cluster/telemetry.h"

#include "util/strings.h"

namespace nv::cluster {

std::string ClusterSnapshot::describe() const {
  return util::format(
      "cluster: %llu shards (%llu accepting, %llu exhausted) | "
      "gossip: %llu published, %llu delivered, %llu applied | "
      "diversity: %.1f bits/shard spec + %.1f bits/shard network = %.1f bits cluster, "
      "%llu of %llu keys remaining | %llu network rotations",
      static_cast<unsigned long long>(shards),
      static_cast<unsigned long long>(shards_accepting),
      static_cast<unsigned long long>(shards_exhausted),
      static_cast<unsigned long long>(gossip_published),
      static_cast<unsigned long long>(gossip_delivered),
      static_cast<unsigned long long>(remote_campaigns_applied), shard_spec_bits,
      network_bits, cluster_bits, static_cast<unsigned long long>(keys_remaining),
      static_cast<unsigned long long>(keys_total),
      static_cast<unsigned long long>(network_rotations));
}

}  // namespace nv::cluster
