#include "obs/abort_report.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "sim/types.h"
#include "util/table.h"

namespace tsx::obs {

namespace {

// Top-k entries of a count map, "key:count" joined with spaces; ties break
// toward the smaller key so the report is deterministic.
template <typename Map, typename KeyFmt>
std::string top_k(const Map& m, size_t k, KeyFmt fmt) {
  std::vector<std::pair<typename Map::key_type, uint64_t>> v(m.begin(),
                                                             m.end());
  std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (v.size() > k) v.resize(k);
  std::string out;
  for (const auto& [key, count] : v) {
    if (!out.empty()) out += " ";
    out += fmt(key) + ":" + std::to_string(count);
  }
  return out.empty() ? "-" : out;
}

}  // namespace

void write_abort_report(std::ostream& os,
                        const std::vector<Capture>& captures) {
  using sim::AbortReason;
  for (const Capture& c : captures) {
    os << "=== abort attribution: " << c.label << " ===\n";
    if (c.dropped > 0) {
      os << "(event ring dropped " << c.dropped
         << " oldest events; counts below are exact)\n";
    }
    util::Table t({"site", "attempts", "commits", "fallbacks", "aborts",
                   "conflict", "rcap", "wcap", "explicit", "fault", "insn",
                   "intr", "top lines", "top attackers"});
    auto reason_count = [](const SiteAgg& a, AbortReason r) {
      return util::Table::fmt_int(static_cast<int64_t>(
          a.aborts_by_reason[static_cast<size_t>(r)]));
    };
    for (const auto& [site, agg] : c.sites) {
      t.add_row({site_name(c, site),
                 util::Table::fmt_int(static_cast<int64_t>(agg.attempts)),
                 util::Table::fmt_int(static_cast<int64_t>(agg.commits)),
                 util::Table::fmt_int(static_cast<int64_t>(agg.fallbacks)),
                 util::Table::fmt_int(static_cast<int64_t>(agg.aborts())),
                 reason_count(agg, AbortReason::kConflict),
                 reason_count(agg, AbortReason::kReadCapacity),
                 reason_count(agg, AbortReason::kWriteCapacity),
                 reason_count(agg, AbortReason::kExplicit),
                 reason_count(agg, AbortReason::kPageFault),
                 reason_count(agg, AbortReason::kUnsupportedInsn),
                 reason_count(agg, AbortReason::kInterrupt),
                 top_k(agg.conflict_lines, 3,
                       [](uint64_t line) {
                         return "0x" + [line] {
                           char buf[32];
                           std::snprintf(buf, sizeof(buf), "%llx",
                                         static_cast<unsigned long long>(
                                             line * sim::kLineBytes));
                           return std::string(buf);
                         }();
                       }),
                 top_k(agg.attacker_sites, 3, [&](uint32_t s) {
                   return site_name(c, s);
                 })});
    }
    t.print(os);
    os << "\n";
  }
}

}  // namespace tsx::obs
