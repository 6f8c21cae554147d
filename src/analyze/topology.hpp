// Topology linter: diagnostics over the declared process/channel/bundle
// graph. Two passes share one Topology value:
//
//   lint_topology — pre-run structural lint, everything knowable the moment
//                   PI_StartAll has the full graph (PLxx diagnostics);
//   lint_usage    — post-run lint over the recorded per-channel traffic
//                   counters and format signatures (PUxx diagnostics).
//
// The structs here are deliberately plain (no pilot types): the pilot
// runtime fills them in, and tests hand-build them to exercise corner cases
// the runtime's own API checks would reject (see docs/ANALYZE.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analyze/diagnostics.hpp"

namespace analyze {

struct SiteInfo {
  std::string file;
  int line = 0;
};

struct ProcessInfo {
  int rank = 0;
  std::string name;
  SiteInfo site;  ///< PI_CreateProcess call site ("" for PI_MAIN)
};

struct ChannelInfo {
  int id = 0;
  int writer = 0;  ///< rank of the writing process
  int reader = 0;  ///< rank of the reading process
  std::string name;
  SiteInfo site;  ///< PI_CreateChannel call site

  // Filled in after the run (lint_usage inputs).
  std::uint64_t writes = 0;  ///< messages sent on this channel
  std::uint64_t reads = 0;   ///< messages consumed from this channel
  std::vector<std::string> write_sigs;  ///< distinct writer format signatures
  std::vector<std::string> read_sigs;   ///< distinct reader format signatures
};

/// Mirrors PI_BUNUSE without depending on the pilot headers.
enum class BundleUsage { kBroadcast, kScatter, kGather, kReduce, kSelect };

const char* bundle_usage_name(BundleUsage u);

struct BundleInfo {
  int id = 0;
  BundleUsage usage = BundleUsage::kBroadcast;
  std::string name;
  std::vector<int> channel_ids;
  SiteInfo site;  ///< PI_CreateBundle call site
};

struct Topology {
  std::vector<ProcessInfo> processes;  ///< [0] = PI_MAIN
  std::vector<ChannelInfo> channels;
  std::vector<BundleInfo> bundles;
};

/// Pre-run structural lint (PL01..PL06). Safe on arbitrary hand-built
/// topologies, including shapes the runtime API itself rejects.
Report lint_topology(const Topology& topo);

/// Post-run usage lint (PU01..PU05) over the traffic counters.
Report lint_usage(const Topology& topo);

/// True when a writer-side format signature (e.g. "lu", "*b") can satisfy a
/// reader-side one — same base type, array-ness matching, mirroring the
/// runtime's level-2 check but applicable offline at any check level.
bool signatures_compatible(const std::string& writer, const std::string& reader);

}  // namespace analyze
