#include "hw/topology.hpp"

namespace pacc::hw {

int ClusterShape::fabric_nodes_per_group(int level) const {
  PACC_EXPECTS(level >= 0 && level < fabric_levels());
  int per_group = 1;
  for (int l = 0; l <= level; ++l) {
    per_group *= fabric[static_cast<std::size_t>(l)].group_size;
  }
  return per_group;
}

double ClusterShape::fabric_link_bandwidth(int level,
                                           double node_link_bandwidth) const {
  const auto& spec = fabric[static_cast<std::size_t>(level)];
  if (spec.bandwidth > 0.0) return spec.bandwidth;
  // Full bisection at this level would carry every child node's HCA
  // bandwidth; the oversubscription ratio thins that out.
  return node_link_bandwidth * fabric_nodes_per_group(level) /
         spec.oversubscription;
}

double ClusterShape::df_local_bandwidth(double node_link_bandwidth) const {
  if (dragonfly.local_bandwidth > 0.0) return dragonfly.local_bandwidth;
  // A router's local links carry its hosted nodes' aggregate HCA bandwidth
  // into the group's all-to-all mesh.
  return node_link_bandwidth * dragonfly.nodes_per_router;
}

double ClusterShape::df_global_bandwidth(double node_link_bandwidth) const {
  if (dragonfly.global_bandwidth > 0.0) return dragonfly.global_bandwidth;
  // The group's global link carries the whole group's aggregate.
  return node_link_bandwidth * df_nodes_per_group();
}

bool ClusterShape::valid() const {
  if (!(nodes >= 1 && sockets_per_node >= 1 && cores_per_socket >= 1 &&
        nodes_per_rack >= 0)) {
    return false;
  }
  if (dragonfly.enabled()) {
    // Dragonfly replaces both the fat-tree fabric and the rack layer.
    if (!fabric.empty() || nodes_per_rack != 0) return false;
    if (dragonfly.routers_per_group < 1 || dragonfly.nodes_per_router < 1 ||
        dragonfly.local_bandwidth < 0.0 || dragonfly.global_bandwidth < 0.0) {
      return false;
    }
    const int per_group = df_nodes_per_group();
    if (per_group > nodes || nodes % per_group != 0) return false;
    return true;
  }
  if (fabric.empty()) return true;
  if (nodes_per_rack != 0) return false;  // fabric replaces the rack layer
  int per_group = 1;
  for (const FabricLevelSpec& level : fabric) {
    if (level.group_size < 2 || level.oversubscription < 1.0 ||
        level.bandwidth < 0.0) {
      return false;
    }
    per_group *= level.group_size;
    if (per_group > nodes || nodes % per_group != 0) return false;
  }
  return true;
}

TranslationGroup translation_group(const ClusterShape& shape) {
  if (shape.has_dragonfly()) {
    // The Valiant intermediate group is a function of absolute group ids,
    // so detour paths differ between a group and its translation image.
    return {shape.df_nodes_per_group(), true,
            shape.dragonfly.adaptive
                ? "adaptive dragonfly routing picks absolute intermediate "
                  "groups — not translation-equivariant; use minimal "
                  "routing to collapse"
                : nullptr};
  }
  if (shape.has_fabric()) {
    return {shape.fabric_nodes_per_group(shape.fabric_levels() - 1), true,
            nullptr};
  }
  if (shape.has_racks()) {
    return {0, false,
            "legacy rack layer groups nodes asymmetrically at the top"};
  }
  return {};
}

int linear_core(const ClusterShape& shape, const CoreId& id) {
  PACC_EXPECTS(id.node >= 0 && id.node < shape.nodes);
  PACC_EXPECTS(id.socket >= 0 && id.socket < shape.sockets_per_node);
  PACC_EXPECTS(id.core_in_socket >= 0 &&
               id.core_in_socket < shape.cores_per_socket);
  return id.node * shape.cores_per_node() +
         id.socket * shape.cores_per_socket + id.core_in_socket;
}

CoreId core_from_linear(const ClusterShape& shape, int linear) {
  PACC_EXPECTS(linear >= 0 && linear < shape.total_cores());
  CoreId id;
  id.node = linear / shape.cores_per_node();
  const int within = linear % shape.cores_per_node();
  id.socket = within / shape.cores_per_socket;
  id.core_in_socket = within % shape.cores_per_socket;
  return id;
}

int os_core_number(const ClusterShape& shape, const CoreId& id) {
  // Fig 5: socket A owns even OS core ids, socket B odd ones.
  return id.core_in_socket * shape.sockets_per_node + id.socket;
}

std::string to_string(AffinityPolicy p) {
  switch (p) {
    case AffinityPolicy::kBunch:
      return "bunch";
    case AffinityPolicy::kScatter:
      return "scatter";
  }
  return "?";
}

RankPlacement place_ranks(const ClusterShape& shape, int ranks,
                          int ranks_per_node, AffinityPolicy policy) {
  PACC_EXPECTS(shape.valid());
  PACC_EXPECTS(ranks >= 1 && ranks_per_node >= 1);
  PACC_EXPECTS_MSG(ranks % ranks_per_node == 0,
                   "ranks must be a multiple of ranks_per_node");
  PACC_EXPECTS_MSG(ranks / ranks_per_node <= shape.nodes,
                   "not enough nodes for this placement");
  PACC_EXPECTS_MSG(ranks_per_node <= shape.cores_per_node(),
                   "not enough cores per node");

  RankPlacement placement;
  placement.shape = shape;
  placement.ranks_per_node = ranks_per_node;
  placement.policy = policy;
  placement.rank_to_core.reserve(static_cast<std::size_t>(ranks));

  for (int rank = 0; rank < ranks; ++rank) {
    const int node = rank / ranks_per_node;
    const int local = rank % ranks_per_node;
    CoreId id;
    id.node = node;
    switch (policy) {
      case AffinityPolicy::kBunch: {
        // Fill socket A first (local ranks 0..cores_per_socket-1), then B.
        id.socket = local / shape.cores_per_socket;
        id.core_in_socket = local % shape.cores_per_socket;
        break;
      }
      case AffinityPolicy::kScatter: {
        id.socket = local % shape.sockets_per_node;
        id.core_in_socket = local / shape.sockets_per_node;
        break;
      }
    }
    PACC_ASSERT(id.socket < shape.sockets_per_node);
    PACC_ASSERT(id.core_in_socket < shape.cores_per_socket);
    placement.rank_to_core.push_back(id);
  }
  return placement;
}

// ----------------------------------------------------------- Topology ----

Topology::Topology(const ClusterShape& shape, double hca_bandwidth,
                   double shm_bandwidth, double rack_bandwidth)
    : nodes_(shape.nodes) {
  PACC_EXPECTS(shape.valid());
  add_links(2 * nodes_, hca_bandwidth, /*contended=*/true);  // up, down
  add_links(nodes_, shm_bandwidth, /*contended=*/false);
  for (int n = 0; n < nodes_; ++n) {
    units_.push_back({"hca node", "hca_down", n, n, nodes_ + n});
  }
  if (shape.has_dragonfly()) {
    build_dragonfly(shape, hca_bandwidth);
  } else if (shape.has_fabric()) {
    build_fat_tree(shape, hca_bandwidth);
  } else if (shape.has_racks()) {
    build_racks(shape, hca_bandwidth, rack_bandwidth);
  } else {
    build_flat(hca_bandwidth);
  }
}

std::int32_t Topology::add_links(int count, double bandwidth,
                                 bool contended) {
  const auto base = static_cast<std::int32_t>(links_.size());
  links_.insert(links_.end(), static_cast<std::size_t>(count),
                Link{bandwidth, contended});
  return base;
}

void Topology::add_level(int groups, int nodes_per_group, double bandwidth,
                         const char* kind, const char* span) {
  const Level level{add_links(2 * groups, bandwidth, /*contended=*/false),
                    groups, nodes_per_group};
  levels_.push_back(level);
  for (int g = 0; g < groups; ++g) {
    units_.push_back({kind, span, g, level.base + g, level.base + groups + g});
  }
}

void Topology::build_flat(double hca_bandwidth) {
  // The single implicit rack's pair: reserved, never routed.
  add_links(2, hca_bandwidth, /*contended=*/false);
}

void Topology::build_racks(const ClusterShape& shape, double hca_bandwidth,
                           double rack_bandwidth) {
  if (rack_bandwidth <= 0.0) {
    // Unprovisioned rack layer: the pairs keep their ids but carry nothing.
    add_links(2 * shape.racks(), hca_bandwidth, /*contended=*/false);
    return;
  }
  add_level(shape.racks(), shape.nodes_per_rack, rack_bandwidth, "rack link",
            "rack_down");
}

void Topology::build_fat_tree(const ClusterShape& shape,
                              double hca_bandwidth) {
  static constexpr const char* kKinds[] = {"fabric l0 group",
                                           "fabric l1 group",
                                           "fabric l2 group"};
  PACC_EXPECTS_MSG(shape.fabric_levels() <= 3,
                   "at most three fat-tree fabric levels are supported");
  build_flat(hca_bandwidth);
  for (int level = 0; level < shape.fabric_levels(); ++level) {
    add_level(shape.fabric_groups(level), shape.fabric_nodes_per_group(level),
              shape.fabric_link_bandwidth(level, hca_bandwidth),
              kKinds[level], "fabric_down");
  }
}

void Topology::build_dragonfly(const ClusterShape& shape,
                               double hca_bandwidth) {
  build_flat(hca_bandwidth);
  add_level(shape.df_routers_total(), shape.dragonfly.nodes_per_router,
            shape.df_local_bandwidth(hca_bandwidth), "df router",
            "df_router_down");
  add_level(shape.df_groups(), shape.df_nodes_per_group(),
            shape.df_global_bandwidth(hca_bandwidth), "df global",
            "df_global_down");
  nested_ = true;
  // A detour needs a group that is neither endpoint's.
  valiant_ = shape.dragonfly.adaptive && shape.df_groups() >= 3;
}

int Topology::route(int src, int dst, bool force_loopback, bool via_top,
                    std::int32_t* out) const {
  if (intra_node(src, dst, force_loopback, via_top)) {
    out[0] = 2 * nodes_ + src;
    return 1;
  }
  out[0] = src;
  out[1] = nodes_ + dst;
  int n = 2;
  // Groups nest, so the endpoints share every level above the first one
  // they share: climb until then.
  const int levels = static_cast<int>(levels_.size());
  int climb = 0;
  while (climb < levels &&
         (via_top || levels_[static_cast<std::size_t>(climb)].up(src) !=
                         levels_[static_cast<std::size_t>(climb)].up(dst))) {
    ++climb;
  }
  if (!nested_) {
    for (int l = 0; l < climb; ++l) {
      const Level& level = levels_[static_cast<std::size_t>(l)];
      out[n++] = level.up(src);
      out[n++] = level.down(dst);
    }
    return n;
  }
  for (int l = 0; l < climb; ++l) {
    out[n++] = levels_[static_cast<std::size_t>(l)].up(src);
  }
  if (valiant_ && !via_top && climb == levels) {
    // Land in a deterministic intermediate group and re-emerge onto the
    // global plane: the first group after the source that is neither
    // endpoint, so runs stay byte-identical at any job count.
    const Level& top = levels_.back();
    const int sg = src / top.nodes_per_group;
    const int dg = dst / top.nodes_per_group;
    int mid = (sg + 1) % top.groups;
    while (mid == sg || mid == dg) mid = (mid + 1) % top.groups;
    out[n++] = top.base + top.groups + mid;
    out[n++] = top.base + mid;
  }
  for (int l = climb; l-- > 0;) {
    out[n++] = levels_[static_cast<std::size_t>(l)].down(dst);
  }
  return n;
}

}  // namespace pacc::hw
