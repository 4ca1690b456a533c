#include "klinq/obs/exposition.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <unordered_map>
#include <unordered_set>

namespace klinq::obs {

namespace {

// Exposition condenses the internal 16 bins/decade to 4 buckets/decade.
constexpr int kBucketsPerDecade = 4;
constexpr int kBinsPerBucket =
    histogram_data::kBinsPerDecade / kBucketsPerDecade;
constexpr int kBucketCount =
    histogram_data::kDecades * kBucketsPerDecade + 1;  // le edges, no +Inf

std::string format_value(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.10g", v);
  }
  return buf;
}

std::string escape_label_value(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// Renders `{k="v",...}`; `extra` appends one more pair (the bucket `le`).
std::string label_block(const label_list& labels, const char* extra_key,
                        const std::string& extra_value) {
  if (labels.empty() && extra_key == nullptr) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    out += escape_label_value(v);
    out += '"';
  }
  if (extra_key != nullptr) {
    if (!first) out += ',';
    out += extra_key;
    out += "=\"";
    out += extra_value;
    out += '"';
  }
  out += '}';
  return out;
}

void render_histogram_series(std::string& out, const std::string& name,
                             const series_snapshot& s) {
  const histogram_data& h = s.histogram;
  // Cumulative condensed buckets: bucket k (le = kMin * 10^(k/4)) covers
  // the underflow slot plus internal log bins 1 .. k*kBinsPerBucket.
  std::uint64_t cumulative = h.bins[0];
  std::size_t bin = 1;
  for (int k = 0; k < kBucketCount; ++k) {
    if (k > 0) {
      for (int i = 0; i < kBinsPerBucket; ++i, ++bin) {
        cumulative += h.bins[bin];
      }
    }
    const double le =
        histogram_data::kMinValue *
        std::pow(10.0, static_cast<double>(k) / kBucketsPerDecade);
    out += name;
    out += "_bucket";
    out += label_block(s.labels, "le", format_value(le));
    out += ' ';
    out += format_value(static_cast<double>(cumulative));
    out += '\n';
  }
  out += name;
  out += "_bucket";
  out += label_block(s.labels, "le", "+Inf");
  out += ' ';
  out += format_value(static_cast<double>(h.count));
  out += '\n';
  out += name;
  out += "_sum";
  out += label_block(s.labels, nullptr, {});
  out += ' ';
  out += format_value(h.sum);
  out += '\n';
  out += name;
  out += "_count";
  out += label_block(s.labels, nullptr, {});
  out += ' ';
  out += format_value(static_cast<double>(h.count));
  out += '\n';
}

}  // namespace

std::string prometheus_text(const metrics_snapshot& snap) {
  std::string out;
  for (const auto& fam : snap.families) {
    if (!fam.help.empty()) {
      out += "# HELP ";
      out += fam.name;
      out += ' ';
      out += fam.help;
      out += '\n';
    }
    out += "# TYPE ";
    out += fam.name;
    out += ' ';
    out += metric_kind_name(fam.kind);
    out += '\n';
    for (const auto& s : fam.series) {
      if (fam.kind == metric_kind::histogram) {
        render_histogram_series(out, fam.name, s);
      } else {
        out += fam.name;
        out += label_block(s.labels, nullptr, {});
        out += ' ';
        out += format_value(s.value);
        out += '\n';
      }
    }
  }
  return out;
}

// --- linter -----------------------------------------------------------------

namespace {

struct lint_state {
  std::vector<std::string> errors;
  std::unordered_map<std::string, std::string> types;  // family -> type
  std::unordered_set<std::string> sampled;             // family base names
  std::set<std::string> series_seen;  // name + canonical labels

  void error(std::size_t line, const std::string& message) {
    errors.push_back("line " + std::to_string(line + 1) + ": " + message);
  }
};

std::string_view strip_histogram_suffix(std::string_view name) {
  for (const std::string_view suffix : {"_bucket", "_sum", "_count"}) {
    if (name.size() > suffix.size() &&
        name.substr(name.size() - suffix.size()) == suffix) {
      return name.substr(0, name.size() - suffix.size());
    }
  }
  return name;
}

void lint_comment(lint_state& st, std::size_t n, std::string_view line) {
  // "# HELP <name> <text...>" | "# TYPE <name> <type>" | free-form comment.
  if (line.substr(0, 7) != "# HELP " && line.substr(0, 7) != "# TYPE ") {
    return;  // arbitrary comments are legal
  }
  const bool is_type = line.substr(2, 4) == "TYPE";
  std::string_view rest = line.substr(7);
  const std::size_t space = rest.find(' ');
  const std::string_view name =
      space == std::string_view::npos ? rest : rest.substr(0, space);
  if (!valid_metric_name(name)) {
    st.error(n, "invalid metric name in " +
                    std::string(is_type ? "TYPE" : "HELP") + " line");
    return;
  }
  if (!is_type) return;
  if (space == std::string_view::npos) {
    st.error(n, "TYPE line missing a type");
    return;
  }
  const std::string_view type = rest.substr(space + 1);
  if (type != "counter" && type != "gauge" && type != "histogram" &&
      type != "summary" && type != "untyped") {
    st.error(n, "unknown type '" + std::string(type) + "'");
    return;
  }
  const std::string key(name);
  if (st.types.contains(key)) {
    st.error(n, "duplicate TYPE for family '" + key + "'");
  }
  if (st.sampled.contains(key)) {
    st.error(n, "TYPE for '" + key + "' appears after its samples");
  }
  st.types[key] = std::string(type);
}

void lint_sample(lint_state& st, std::size_t n, std::string_view line) {
  std::size_t i = 0;
  while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
  const std::string_view name = line.substr(0, i);
  if (!valid_metric_name(name)) {
    st.error(n, "invalid metric name");
    return;
  }
  std::string canonical;  // sorted k="v" pairs for duplicate detection
  std::vector<std::string> pairs;
  if (i < line.size() && line[i] == '{') {
    ++i;
    while (i < line.size() && line[i] != '}') {
      std::size_t key_end = i;
      while (key_end < line.size() && line[key_end] != '=') ++key_end;
      const std::string_view key = line.substr(i, key_end - i);
      // `le` is exposition-internal, not subject to the registry's
      // reserved-key rule.
      if (!valid_label_key(key) && key != "le") {
        st.error(n, "invalid label key '" + std::string(key) + "'");
        return;
      }
      i = key_end;
      if (i + 1 >= line.size() || line[i] != '=' || line[i + 1] != '"') {
        st.error(n, "label value must be double-quoted");
        return;
      }
      i += 2;
      std::string value;
      bool closed = false;
      while (i < line.size()) {
        const char c = line[i];
        if (c == '\\') {
          if (i + 1 >= line.size() ||
              (line[i + 1] != '\\' && line[i + 1] != '"' &&
               line[i + 1] != 'n')) {
            st.error(n, "invalid escape in label value");
            return;
          }
          value += line[i + 1];
          i += 2;
          continue;
        }
        if (c == '"') {
          closed = true;
          ++i;
          break;
        }
        value += c;
        ++i;
      }
      if (!closed) {
        st.error(n, "unterminated label value");
        return;
      }
      pairs.push_back(std::string(key) + "=\"" + value + '"');
      if (i < line.size() && line[i] == ',') ++i;
    }
    if (i >= line.size() || line[i] != '}') {
      st.error(n, "unterminated label block");
      return;
    }
    ++i;
  }
  if (i >= line.size() || line[i] != ' ') {
    st.error(n, "missing value");
    return;
  }
  while (i < line.size() && line[i] == ' ') ++i;
  std::size_t value_end = i;
  while (value_end < line.size() && line[value_end] != ' ') ++value_end;
  const std::string value(line.substr(i, value_end - i));
  if (value != "+Inf" && value != "-Inf" && value != "NaN") {
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    if (value.empty() || end != value.c_str() + value.size()) {
      st.error(n, "unparsable value '" + value + "'");
      return;
    }
  }
  // Optional integer timestamp after the value.
  while (value_end < line.size() && line[value_end] == ' ') ++value_end;
  if (value_end < line.size()) {
    const std::string ts(line.substr(value_end));
    char* end = nullptr;
    std::strtoll(ts.c_str(), &end, 10);
    if (end != ts.c_str() + ts.size()) {
      st.error(n, "trailing garbage after value");
      return;
    }
  }

  std::sort(pairs.begin(), pairs.end());
  canonical = std::string(name);
  for (const auto& p : pairs) canonical += '\x1f' + p;
  if (!st.series_seen.insert(canonical).second) {
    st.error(n, "duplicate series for '" + std::string(name) + "'");
  }
  st.sampled.insert(std::string(strip_histogram_suffix(name)));
  st.sampled.insert(std::string(name));
}

}  // namespace

std::vector<std::string> lint_prometheus_text(std::string_view text) {
  lint_state st;
  std::size_t begin = 0;
  std::size_t line_no = 0;
  while (begin <= text.size()) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(begin, end - begin);
    if (!line.empty()) {
      if (line[0] == '#') {
        lint_comment(st, line_no, line);
      } else {
        lint_sample(st, line_no, line);
      }
    }
    ++line_no;
    if (end == text.size()) break;
    begin = end + 1;
  }
  return st.errors;
}

}  // namespace klinq::obs
