// Pins the metric reference table in docs/OPERATIONS.md against the
// live registry: every family the instrumented code registers must be
// documented with the correct type, and every documented family must
// exist. A metric added, removed, or re-typed without updating the doc
// fails here, so the operator documentation cannot drift silently —
// the companion of net_protocol_test's PROTOCOL.md pinning.

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/net/net_metrics.h"
#include "src/obs/core_metrics.h"
#include "src/obs/metrics.h"

namespace asketch {
namespace {

std::string ReadOperationsDoc() {
  const std::string path =
      std::string(ASKETCH_REPO_ROOT) + "/docs/OPERATIONS.md";
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return "";
  std::string text;
  char buffer[4096];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    text.append(buffer, n);
  }
  std::fclose(f);
  return text;
}

/// Parses `| \`name\` | type | ...` rows between the metrics-table
/// markers into name -> type.
std::map<std::string, std::string> DocumentedMetrics(
    const std::string& doc) {
  std::map<std::string, std::string> metrics;
  const size_t begin = doc.find("<!-- metrics-table-begin -->");
  const size_t end = doc.find("<!-- metrics-table-end -->");
  if (begin == std::string::npos || end == std::string::npos) {
    return metrics;
  }
  size_t pos = begin;
  while (pos < end) {
    const size_t eol = doc.find('\n', pos);
    const std::string line = doc.substr(pos, eol - pos);
    pos = eol == std::string::npos ? end : eol + 1;
    // Row shape: | `asketch_...` | counter | meaning |
    if (line.rfind("| `asketch_", 0) != 0) continue;
    const size_t name_end = line.find('`', 3);
    if (name_end == std::string::npos) continue;
    const std::string name = line.substr(3, name_end - 3);
    const size_t type_begin = line.find("| ", name_end);
    if (type_begin == std::string::npos) continue;
    const size_t type_end = line.find(' ', type_begin + 2);
    if (type_end == std::string::npos) continue;
    metrics[name] = line.substr(type_begin + 2, type_end - type_begin - 2);
  }
  return metrics;
}

/// Touches every instrumented subsystem so all lazily-registered
/// families exist, then snapshots the global registry as name -> type.
std::map<std::string, std::string> LiveMetrics() {
  obs::IngestMetrics::Get();
  obs::SalsaMetrics::Get();
  obs::SnapshotMetrics::Get();
  net::NetMetrics::Get();

  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().Collect();
  std::map<std::string, std::string> metrics;
  for (const auto& counter : snapshot.counters) {
    metrics[counter.name] = "counter";
  }
  for (const auto& gauge : snapshot.gauges) {
    metrics[gauge.name] = "gauge";
  }
  for (const auto& histogram : snapshot.histograms) {
    metrics[histogram.name] = "histogram";
  }
  return metrics;
}

TEST(OperationsDoc, MetricTableMatchesLiveRegistry) {
  if (!obs::TelemetryCompiledIn()) GTEST_SKIP() << "telemetry compiled out";
  const std::string doc = ReadOperationsDoc();
  ASSERT_FALSE(doc.empty()) << "docs/OPERATIONS.md missing";
  const auto documented = DocumentedMetrics(doc);
  ASSERT_FALSE(documented.empty())
      << "docs/OPERATIONS.md metrics-table markers missing or empty";
  const auto live = LiveMetrics();
  ASSERT_FALSE(live.empty());

  for (const auto& [name, type] : live) {
    const auto it = documented.find(name);
    if (it == documented.end()) {
      ADD_FAILURE() << "metric `" << name
                    << "` is registered but not documented in "
                       "docs/OPERATIONS.md";
    } else {
      EXPECT_EQ(it->second, type)
          << "docs/OPERATIONS.md documents `" << name << "` as "
          << it->second << " but the registry exposes a " << type;
    }
  }
  for (const auto& [name, type] : documented) {
    EXPECT_TRUE(live.count(name) != 0)
        << "docs/OPERATIONS.md documents `" << name
        << "` (" << type << ") but no such metric is registered";
  }
}

std::string ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return "";
  std::string text;
  char buffer[4096];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    text.append(buffer, n);
  }
  std::fclose(f);
  return text;
}

/// Flags asketchd's argv parser accepts, scraped from the
/// `arg == "--name"` comparisons in tools/asketchd.cc.
std::set<std::string> ParsedServerFlags() {
  const std::string source =
      ReadFile(std::string(ASKETCH_REPO_ROOT) + "/tools/asketchd.cc");
  std::set<std::string> flags;
  const std::string needle = "arg == \"--";
  size_t pos = 0;
  while ((pos = source.find(needle, pos)) != std::string::npos) {
    const size_t begin = pos + needle.size() - 2;  // keep the leading --
    const size_t end = source.find('"', begin);
    if (end == std::string::npos) break;
    flags.insert(source.substr(begin, end - begin));
    pos = end;
  }
  return flags;
}

/// Flags documented in OPERATIONS.md's server flag table — the rows
/// shaped `| \`--name ARG\` | default | meaning |` under "## Running"
/// (OPERATIONS.md documents other tools' flags in later sections; those
/// are out of scope here).
std::set<std::string> DocumentedServerFlags(const std::string& doc) {
  std::set<std::string> flags;
  size_t pos = doc.find("## Running");
  const size_t section_end =
      pos == std::string::npos ? std::string::npos : doc.find("###", pos);
  while (pos != std::string::npos &&
         (pos = doc.find("| `--", pos)) != std::string::npos) {
    if (pos >= section_end) break;
    const size_t begin = pos + 3;  // past "| `"
    size_t end = begin;
    while (end < doc.size() && doc[end] != ' ' && doc[end] != '`') ++end;
    flags.insert(doc.substr(begin, end - begin));
    pos = end;
  }
  return flags;
}

// The flag-table companion of the metric pinning above, fail-closed in
// both directions: every flag asketchd's parser accepts must have a row
// in the server flag table, and every row must name a flag the parser
// still accepts.
TEST(OperationsDoc, FlagTableMatchesServerParser) {
  const std::string doc = ReadOperationsDoc();
  ASSERT_FALSE(doc.empty()) << "docs/OPERATIONS.md missing";
  const std::set<std::string> parsed = ParsedServerFlags();
  ASSERT_FALSE(parsed.empty())
      << "could not scrape flags from tools/asketchd.cc";
  const std::set<std::string> documented = DocumentedServerFlags(doc);
  ASSERT_FALSE(documented.empty())
      << "server flag table not found under '## Running'";
  for (const std::string& flag : parsed) {
    EXPECT_TRUE(documented.count(flag) != 0)
        << "asketchd parses `" << flag
        << "` but docs/OPERATIONS.md has no flag-table row for it";
  }
  for (const std::string& flag : documented) {
    EXPECT_TRUE(parsed.count(flag) != 0)
        << "docs/OPERATIONS.md documents `" << flag
        << "` but asketchd no longer parses it";
  }
}

}  // namespace
}  // namespace asketch
