#include "src/core/protected_memory_paxos.hpp"

namespace mnm::core {

mem::LegalChangeFn pmp_legal_change(std::vector<ProcessId> all) {
  // Precompute each process's exclusive-writer permission: the memory
  // evaluates legalChange on every change_permission, and rebuilding the
  // target permission there allocated three sets per call.
  std::vector<mem::Permission> targets;
  targets.reserve(all.size());
  for (ProcessId p : all) {
    targets.push_back(mem::Permission::exclusive_writer(p, all));
  }
  return [all = std::move(all), targets = std::move(targets)](
             ProcessId requester, RegionId, const mem::Permission&,
             const mem::Permission& proposed) {
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (all[i] == requester) return proposed == targets[i];
    }
    return proposed == mem::Permission::exclusive_writer(requester, all);
  };
}

}  // namespace mnm::core
