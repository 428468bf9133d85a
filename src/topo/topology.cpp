#include "topo/topology.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <system_error>
#include <thread>
#include <utility>

#include <sched.h>

namespace cilkm::topo {

namespace fs = std::filesystem;

namespace {

/// Read a small sysfs file into `out` (trailing whitespace stripped).
/// Returns false when the file is missing or unreadable.
bool read_file(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  out->clear();
  char buf[256];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out->append(buf, n);
  std::fclose(f);
  while (!out->empty() && std::isspace(static_cast<unsigned char>(out->back()))) {
    out->pop_back();
  }
  return true;
}

/// Parse a sysfs integer file (core_id, physical_package_id). sysfs reports
/// -1 for "unknown"; map that (and parse failures) to `fallback`.
bool read_int(const std::string& path, long* out) {
  std::string text;
  if (!read_file(path, &text)) return false;
  char* end = nullptr;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str()) return false;
  *out = v;
  return true;
}

std::vector<unsigned> intersect(const std::vector<unsigned>& a,
                                const std::vector<unsigned>& b) {
  std::vector<unsigned> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

unsigned fallback_cpu_count() {
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace

std::vector<unsigned> parse_cpulist(const std::string& text) {
  std::vector<unsigned> out;
  const char* p = text.c_str();
  while (*p != '\0') {
    char* end = nullptr;
    const unsigned long lo = std::strtoul(p, &end, 10);
    if (end == p) break;
    unsigned long hi = lo;
    p = end;
    if (*p == '-') {
      ++p;
      hi = std::strtoul(p, &end, 10);
      if (end == p || hi < lo) break;
      p = end;
    }
    for (unsigned long c = lo; c <= hi; ++c) out.push_back(static_cast<unsigned>(c));
    if (*p == ',') ++p;
    else break;
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Topology Topology::flat(unsigned num_cpus) {
  std::vector<unsigned> ids(std::max(1u, num_cpus));
  for (unsigned i = 0; i < ids.size(); ++i) ids[i] = i;
  return flat_over(std::move(ids));
}

Topology Topology::flat_over(std::vector<unsigned> cpu_ids) {
  std::sort(cpu_ids.begin(), cpu_ids.end());
  cpu_ids.erase(std::unique(cpu_ids.begin(), cpu_ids.end()), cpu_ids.end());
  if (cpu_ids.empty()) cpu_ids.push_back(0);
  Topology t;
  t.cpus_.reserve(cpu_ids.size());
  for (unsigned i = 0; i < cpu_ids.size(); ++i) {
    t.cpus_.push_back(CpuInfo{cpu_ids[i], /*core=*/i, /*package=*/0, /*node=*/0});
  }
  t.num_cores_ = static_cast<unsigned>(cpu_ids.size());
  t.num_packages_ = 1;
  t.num_nodes_ = 1;
  t.from_sysfs_ = false;
  return t;
}

Topology Topology::discover_at(const std::string& sysfs_root,
                               const std::vector<unsigned>* affinity) {
  // Which CPUs exist: the online cpulist. Without it there is no usable
  // sysfs tree — fall back to a flat topology over the affinity mask (or a
  // hardware_concurrency guess when there is no mask either).
  std::string online_text;
  std::vector<unsigned> online;
  if (read_file(sysfs_root + "/cpu/online", &online_text)) {
    online = parse_cpulist(online_text);
  }
  if (online.empty()) {
    if (affinity != nullptr && !affinity->empty()) return flat_over(*affinity);
    return flat(fallback_cpu_count());
  }

  std::vector<unsigned> usable = online;
  if (affinity != nullptr && !affinity->empty()) {
    std::vector<unsigned> mask = *affinity;
    std::sort(mask.begin(), mask.end());
    usable = intersect(online, mask);
    // A mask entirely outside the online list (stale cpuset): trust the
    // mask — the kernel will run us somewhere — but with no sysfs data.
    if (usable.empty()) return flat_over(mask);
  }

  // Per-CPU structure. Dense core ids are assigned per (package, core_id)
  // pair because sysfs core_id is only unique within a package.
  Topology t;
  std::map<std::pair<long, long>, unsigned> core_index;
  std::set<long> packages;
  bool parsed_any = false;
  for (const unsigned cpu : usable) {
    const std::string base = sysfs_root + "/cpu/cpu" + std::to_string(cpu) +
                             "/topology/";
    long package = 0, core = static_cast<long>(cpu);
    const bool got_pkg = read_int(base + "physical_package_id", &package);
    const bool got_core = read_int(base + "core_id", &core);
    parsed_any = parsed_any || got_pkg || got_core;
    if (package < 0) package = 0;
    if (core < 0) core = static_cast<long>(cpu);
    // Un-parseable CPUs get a core index of their own (no false siblings).
    const auto key = got_core ? std::make_pair(package, core)
                              : std::make_pair(package, -1L - cpu);
    const auto [it, inserted] =
        core_index.emplace(key, static_cast<unsigned>(core_index.size()));
    packages.insert(package);
    t.cpus_.push_back(CpuInfo{cpu, it->second,
                              static_cast<unsigned>(package), 0});
  }
  if (!parsed_any) return flat_over(usable);

  // NUMA nodes from the sibling node/ tree; absent, node mirrors package.
  // Node ids need not be contiguous (offlined nodes, memory hotplug), so
  // enumerate the node<K> directories instead of counting from zero.
  std::set<unsigned> nodes;
  bool any_node = false;
  std::error_code ec;
  for (const auto& entry :
       fs::directory_iterator(sysfs_root + "/node", ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("node", 0) != 0) continue;
    char* end = nullptr;
    const unsigned long node = std::strtoul(name.c_str() + 4, &end, 10);
    if (end == name.c_str() + 4 || *end != '\0') continue;
    std::string list_text;
    if (!read_file(entry.path().string() + "/cpulist", &list_text)) continue;
    any_node = true;
    for (const unsigned cpu : parse_cpulist(list_text)) {
      for (CpuInfo& info : t.cpus_) {
        if (info.cpu == cpu) info.node = static_cast<unsigned>(node);
      }
    }
  }
  for (CpuInfo& info : t.cpus_) {
    if (!any_node) info.node = info.package;
    nodes.insert(info.node);
  }

  t.num_cores_ = static_cast<unsigned>(core_index.size());
  t.num_packages_ = static_cast<unsigned>(packages.size());
  t.num_nodes_ = static_cast<unsigned>(nodes.size());
  t.from_sysfs_ = true;
  return t;
}

Topology Topology::discover() {
  std::vector<unsigned> affinity;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (unsigned cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) affinity.push_back(cpu);
    }
  }
  return discover_at("/sys/devices/system",
                     affinity.empty() ? nullptr : &affinity);
}

const Topology& Topology::machine() {
  static const Topology topology = discover();
  return topology;
}

const CpuInfo* Topology::find(unsigned cpu_id) const noexcept {
  const auto it = std::lower_bound(
      cpus_.begin(), cpus_.end(), cpu_id,
      [](const CpuInfo& info, unsigned id) { return info.cpu < id; });
  if (it == cpus_.end() || it->cpu != cpu_id) return nullptr;
  return &*it;
}

Topology::Proximity Topology::proximity(unsigned cpu_a,
                                        unsigned cpu_b) const noexcept {
  if (cpu_a == cpu_b) return Proximity::kSameCore;
  const CpuInfo* a = find(cpu_a);
  const CpuInfo* b = find(cpu_b);
  if (a == nullptr || b == nullptr) return Proximity::kRemote;
  if (a->core == b->core) return Proximity::kSameCore;
  if (a->package == b->package && a->node == b->node) {
    return Proximity::kSamePackage;
  }
  return Proximity::kRemote;
}

std::string Topology::describe() const {
  return std::to_string(num_cpus()) + " cpus / " + std::to_string(num_cores_) +
         " cores / " + std::to_string(num_packages_) + " packages / " +
         std::to_string(num_nodes_) + " nodes " +
         (from_sysfs_ ? "(sysfs)" : "(flat fallback)");
}

}  // namespace cilkm::topo
