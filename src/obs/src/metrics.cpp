#include "klinq/obs/metrics.hpp"

#include <algorithm>

#include "klinq/common/error.hpp"
#include "klinq/obs/exposition.hpp"

namespace klinq::obs {

namespace {

bool name_char(char c, bool first) noexcept {
  const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                     c == '_' || c == ':';
  if (first) return alpha;
  return alpha || (c >= '0' && c <= '9');
}

bool key_char(char c, bool first) noexcept {
  const bool alpha =
      (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
  if (first) return alpha;
  return alpha || (c >= '0' && c <= '9');
}

/// Key-sort the labels and build the canonical lookup key. Validates keys.
label_list canonicalize(const label_list& labels, std::string& key) {
  label_list sorted = labels;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  key.clear();
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const auto& [k, v] = sorted[i];
    KLINQ_REQUIRE(valid_label_key(k),
                  "metrics: invalid label key '" + k + "'");
    KLINQ_REQUIRE(k != "le" && k != "quantile",
                  "metrics: label key '" + k + "' is reserved");
    KLINQ_REQUIRE(i == 0 || sorted[i - 1].first != k,
                  "metrics: duplicate label key '" + k + "'");
    // \x1f never appears in validated keys; values are length-delimited by
    // the separator position since keys cannot contain it either.
    key += k;
    key += '\x1f';
    key += v;
    key += '\x1f';
  }
  return sorted;
}

}  // namespace

const char* metric_kind_name(metric_kind kind) noexcept {
  switch (kind) {
    case metric_kind::counter: return "counter";
    case metric_kind::gauge: return "gauge";
    case metric_kind::histogram: return "histogram";
  }
  return "unknown";
}

bool valid_metric_name(std::string_view name) noexcept {
  if (name.empty()) return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    if (!name_char(name[i], i == 0)) return false;
  }
  return true;
}

bool valid_label_key(std::string_view key) noexcept {
  if (key.empty()) return false;
  if (key.substr(0, 2) == "__") return false;  // Prometheus-reserved space
  for (std::size_t i = 0; i < key.size(); ++i) {
    if (!key_char(key[i], i == 0)) return false;
  }
  return true;
}

// --- snapshot helpers -------------------------------------------------------

const family_snapshot* metrics_snapshot::find(
    std::string_view name) const noexcept {
  for (const auto& fam : families) {
    if (fam.name == name) return &fam;
  }
  return nullptr;
}

const series_snapshot* metrics_snapshot::find(std::string_view name,
                                              const label_list& labels) const {
  const family_snapshot* fam = find(name);
  if (fam == nullptr) return nullptr;
  label_list sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  for (const auto& s : fam->series) {
    if (s.labels.size() != sorted.size()) continue;
    if (std::equal(s.labels.begin(), s.labels.end(), sorted.begin())) {
      return &s;
    }
  }
  return nullptr;
}

double metrics_snapshot::value(std::string_view name,
                               const label_list& labels) const {
  const series_snapshot* s = find(name, labels);
  return s == nullptr ? 0.0 : s->value;
}

double metrics_snapshot::histogram_quantile(std::string_view family,
                                            const label_list& match,
                                            double q) const {
  const family_snapshot* fam = find(family);
  if (fam == nullptr) return 0.0;
  histogram_data merged;
  for (const auto& s : fam->series) {
    bool ok = true;
    for (const auto& want : match) {
      ok = ok && std::find(s.labels.begin(), s.labels.end(), want) !=
                     s.labels.end();
    }
    if (ok) merged.merge(s.histogram);
  }
  return merged.quantile(q);
}

// --- registry ---------------------------------------------------------------

metric_registry::family& metric_registry::get_family(std::string_view name,
                                                     metric_kind kind,
                                                     std::string_view help) {
  KLINQ_REQUIRE(valid_metric_name(name),
                "metrics: invalid family name '" + std::string(name) + "'");
  const std::lock_guard lock(families_mutex_);
  auto it = families_.find(name);
  if (it == families_.end()) {
    auto fam = std::make_unique<family>();
    fam->name = std::string(name);
    fam->help = std::string(help);
    fam->kind = kind;
    it = families_.emplace(fam->name, std::move(fam)).first;
  } else {
    KLINQ_REQUIRE(it->second->kind == kind,
                  "metrics: family '" + std::string(name) + "' is a " +
                      metric_kind_name(it->second->kind) + ", requested as " +
                      metric_kind_name(kind));
    if (it->second->help.empty() && !help.empty()) {
      it->second->help = std::string(help);
    }
  }
  return *it->second;
}

metric_registry::series& metric_registry::get_series(family& fam,
                                                     const label_list& labels) {
  std::string key;
  label_list sorted = canonicalize(labels, key);
  const std::lock_guard lock(fam.mutex);
  for (auto& entry : fam.entries) {
    if (entry->key == key) return *entry;
  }
  auto entry = std::make_unique<series>();
  entry->labels = std::move(sorted);
  entry->key = std::move(key);
  switch (fam.kind) {
    case metric_kind::counter:
      entry->as_counter = std::make_unique<counter>();
      break;
    case metric_kind::gauge:
      entry->as_gauge = std::make_unique<gauge>();
      break;
    case metric_kind::histogram:
      entry->as_histogram = std::make_unique<log_histogram>();
      break;
  }
  fam.entries.push_back(std::move(entry));
  return *fam.entries.back();
}

counter& metric_registry::get_counter(std::string_view name,
                                      const label_list& labels,
                                      std::string_view help) {
  return *get_series(get_family(name, metric_kind::counter, help), labels)
              .as_counter;
}

gauge& metric_registry::get_gauge(std::string_view name,
                                  const label_list& labels,
                                  std::string_view help) {
  return *get_series(get_family(name, metric_kind::gauge, help), labels)
              .as_gauge;
}

log_histogram& metric_registry::get_histogram(std::string_view name,
                                              const label_list& labels,
                                              std::string_view help) {
  return *get_series(get_family(name, metric_kind::histogram, help), labels)
              .as_histogram;
}

std::uint64_t metric_registry::add_collector(std::function<void()> collect) {
  const std::lock_guard lock(collectors_mutex_);
  const std::uint64_t id = next_collector_id_++;
  collectors_.emplace_back(id, std::move(collect));
  return id;
}

void metric_registry::remove_collector(std::uint64_t id) {
  const std::lock_guard lock(collectors_mutex_);
  std::erase_if(collectors_, [id](const auto& c) { return c.first == id; });
}

metrics_snapshot metric_registry::snapshot() const {
  // Run collectors outside every registry lock: they are free to resolve
  // new handles (which takes the locks) while refreshing pull-style gauges.
  std::vector<std::function<void()>> collectors;
  {
    const std::lock_guard lock(collectors_mutex_);
    collectors.reserve(collectors_.size());
    for (const auto& [id, fn] : collectors_) collectors.push_back(fn);
  }
  for (const auto& fn : collectors) fn();

  metrics_snapshot snap;
  const std::lock_guard lock(families_mutex_);
  snap.families.reserve(families_.size());
  for (const auto& [name, fam] : families_) {  // map: name-sorted
    family_snapshot fs;
    fs.name = fam->name;
    fs.help = fam->help;
    fs.kind = fam->kind;
    const std::lock_guard stripe(fam->mutex);
    fs.series.reserve(fam->entries.size());
    for (const auto& entry : fam->entries) {
      series_snapshot ss;
      ss.labels = entry->labels;
      switch (fam->kind) {
        case metric_kind::counter:
          ss.value = static_cast<double>(entry->as_counter->value());
          break;
        case metric_kind::gauge:
          ss.value = entry->as_gauge->value();
          break;
        case metric_kind::histogram:
          ss.histogram = entry->as_histogram->data();
          break;
      }
      fs.series.push_back(std::move(ss));
    }
    // Entries live in resolution order; sort for deterministic exposition.
    std::sort(fs.series.begin(), fs.series.end(),
              [](const series_snapshot& a, const series_snapshot& b) {
                return a.labels < b.labels;
              });
    snap.families.push_back(std::move(fs));
  }
  return snap;
}

std::string metric_registry::prometheus_text() const {
  return obs::prometheus_text(snapshot());
}

std::size_t metric_registry::family_count() const {
  const std::lock_guard lock(families_mutex_);
  return families_.size();
}

metric_registry& default_registry() {
  static metric_registry* instance = new metric_registry();
  return *instance;
}

}  // namespace klinq::obs
