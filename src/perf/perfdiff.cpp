#include "perf/perfdiff.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "common/json.hpp"

namespace esg::perf {

namespace {

using json::Value;

std::string trim_number(double v) {
  std::string s = std::to_string(v);
  if (s.find('.') != std::string::npos) {
    while (!s.empty() && s.back() == '0') s.pop_back();
    if (!s.empty() && s.back() == '.') s.pop_back();
  }
  return s;
}

/// Stable identity for an array element: its string members plus
/// rate_scale/seed (numbers our artefacts use as identifiers), else the
/// element index.
std::string element_key(const Value& element, std::size_t index) {
  if (element.kind != Value::Kind::kObject) return std::to_string(index);
  std::string key;
  for (const auto& [name, member] : element.members) {
    // "engine" is informational provenance, not identity: both engines
    // produce byte-identical runs by contract, so rows stay comparable
    // against baselines written before the field existed.
    if (name == "engine") continue;
    const bool id_number = member.kind == Value::Kind::kNumber &&
                           (name == "rate_scale" || name == "seed");
    if (member.kind != Value::Kind::kString && !id_number) continue;
    if (!key.empty()) key += ",";
    key += name + "=" +
           (id_number ? trim_number(member.number) : member.text);
  }
  return key.empty() ? std::to_string(index) : key;
}

struct Leaf {
  std::string path;
  double value;
};

void flatten(const Value& v, const std::string& path, std::vector<Leaf>& out) {
  switch (v.kind) {
    case Value::Kind::kNumber:
      out.push_back({path, v.number});
      break;
    case Value::Kind::kObject:
      for (const auto& [name, member] : v.members) {
        flatten(member, path.empty() ? name : path + "." + name, out);
      }
      break;
    case Value::Kind::kArray:
      for (std::size_t i = 0; i < v.items.size(); ++i) {
        flatten(v.items[i], path + "[" + element_key(v.items[i], i) + "]", out);
      }
      break;
    default:
      break;  // strings/bools/null carry no comparable metric
  }
}

/// 0 = not gating; +1 = gating, higher is better; -1 = gating, lower is
/// better (suffix written with a leading '-'). First matching suffix wins.
int gate_direction(const std::string& path, const DiffOptions& options) {
  for (const std::string& raw : options.gate_suffixes) {
    const bool lower_better = !raw.empty() && raw.front() == '-';
    const std::string_view suffix =
        lower_better ? std::string_view(raw).substr(1) : std::string_view(raw);
    if (suffix.empty() || path.size() < suffix.size()) continue;
    if (path.compare(path.size() - suffix.size(), suffix.size(), suffix) ==
        0) {
      return lower_better ? -1 : 1;
    }
  }
  return 0;
}

/// Provenance leaves (meta.cpus and friends) never carry a perf signal.
bool is_meta(const std::string& path) {
  return path.compare(0, 5, "meta.") == 0;
}

}  // namespace

DiffResult diff_json(const std::string& baseline_text,
                     const std::string& current_text,
                     const DiffOptions& options) {
  const Value baseline = json::parse(baseline_text, "baseline");
  const Value current = json::parse(current_text, "current");

  std::vector<Leaf> base_leaves;
  std::vector<Leaf> cur_leaves;
  flatten(baseline, "", base_leaves);
  flatten(current, "", cur_leaves);

  std::map<std::string, double> cur_by_path;
  for (const Leaf& leaf : cur_leaves) cur_by_path[leaf.path] = leaf.value;
  std::map<std::string, double> base_by_path;
  for (const Leaf& leaf : base_leaves) base_by_path[leaf.path] = leaf.value;

  DiffResult result;
  for (const Leaf& base : base_leaves) {
    if (is_meta(base.path)) continue;
    const auto it = cur_by_path.find(base.path);
    if (it == cur_by_path.end()) {
      result.notes.push_back("missing in current: " + base.path);
      continue;
    }
    DiffLine line;
    line.metric = base.path;
    line.baseline = base.value;
    line.current = it->second;
    line.delta_frac =
        base.value != 0.0
            ? (it->second - base.value) / std::fabs(base.value)
            : (it->second == 0.0 ? 0.0 : 1.0);
    const int direction = gate_direction(base.path, options);
    line.gating = direction != 0;
    line.regression = direction > 0
                          ? line.delta_frac < -options.threshold
                          : direction < 0 &&
                                line.delta_frac > options.threshold;
    if (line.regression) result.regressed = true;
    result.lines.push_back(std::move(line));
  }
  for (const Leaf& cur : cur_leaves) {
    if (is_meta(cur.path)) continue;
    if (base_by_path.find(cur.path) == base_by_path.end()) {
      result.notes.push_back("missing in baseline: " + cur.path);
    }
  }
  return result;
}

DiffResult diff_files(const std::string& baseline_path,
                      const std::string& current_path,
                      const DiffOptions& options) {
  const auto read_all = [](const std::string& path) {
    std::ifstream in(path);
    if (!in) {
      throw std::invalid_argument("cannot read '" + path + "'");
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  return diff_json(read_all(baseline_path), read_all(current_path), options);
}

void print_diff(std::FILE* out, const DiffResult& result,
                const DiffOptions& options) {
  std::size_t shown = 0;
  for (const DiffLine& line : result.lines) {
    const bool moved = std::fabs(line.delta_frac) > options.threshold;
    if (!line.gating && !moved) continue;
    const char* tag = line.regression ? "REGRESSION"
                      : line.gating    ? "ok"
                                       : "info";
    std::fprintf(out, "%-10s %-60s %14.3f -> %14.3f  (%+.1f%%)\n", tag,
                 line.metric.c_str(), line.baseline, line.current,
                 line.delta_frac * 100.0);
    ++shown;
  }
  if (shown == 0) std::fprintf(out, "no gating or moved metrics\n");
  for (const std::string& note : result.notes) {
    std::fprintf(out, "note: %s\n", note.c_str());
  }
  const std::size_t regressions = static_cast<std::size_t>(
      std::count_if(result.lines.begin(), result.lines.end(),
                    [](const DiffLine& l) { return l.regression; }));
  if (result.regressed) {
    std::fprintf(out, "verdict: %zu regression(s) past %.0f%% threshold%s\n",
                 regressions, options.threshold * 100.0,
                 options.report_only ? " [report-only]" : "");
  } else {
    std::fprintf(out, "verdict: no regressions past %.0f%% threshold\n",
                 options.threshold * 100.0);
  }
}

}  // namespace esg::perf
