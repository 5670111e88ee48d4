#include "obs/metrics.hpp"

#include <map>
#include <sstream>
#include <tuple>

namespace gqs {

// ---- metrics_registry ----

void metrics_registry::observe_counter(std::string_view name,
                                       std::string_view label,
                                       std::function<std::uint64_t()> fn) {
  if (!enabled_ || !fn) return;
  observers_.push_back(observer{metric_kind::counter, std::string(name),
                                std::string(label), gauge_fold::sum,
                                std::move(fn), {}});
}

void metrics_registry::observe_gauge(std::string_view name,
                                     std::string_view label,
                                     std::function<std::int64_t()> fn,
                                     gauge_fold how) {
  if (!enabled_ || !fn) return;
  observers_.push_back(observer{metric_kind::gauge, std::string(name),
                                std::string(label), how, {}, std::move(fn)});
}

metrics_snapshot metrics_registry::snapshot() const {
  // std::map iteration is already (kind, name, label)-sorted, so rows
  // come out in canonical order.
  std::map<std::tuple<metric_kind, std::string, std::string>, metric_row>
      acc;
  for (const observer& ob : observers_) {
    auto [it, fresh] = acc.try_emplace({ob.kind, ob.name, ob.label});
    metric_row& row = it->second;
    if (fresh) {
      row.kind = ob.kind;
      row.name = ob.name;
      row.label = ob.label;
      row.fold = ob.fold;
    }
    if (ob.kind == metric_kind::counter) {
      row.value += ob.counter_fn();
    } else {
      const std::int64_t v = ob.gauge_fn();
      row.level = fresh ? v : fold_gauge(row.fold, row.level, v);
    }
  }
  metrics_snapshot snap;
  snap.rows.reserve(acc.size());
  for (auto& [k, row] : acc) snap.rows.push_back(std::move(row));
  return snap;
}

// ---- metrics_snapshot ----

namespace {

struct row_key_less {
  static std::tuple<int, const std::string&, const std::string&> key_of(
      const metric_row& r) {
    return {static_cast<int>(r.kind), r.name, r.label};
  }
  bool operator()(const metric_row& a, const metric_row& b) const {
    return key_of(a) < key_of(b);
  }
};

}  // namespace

void metrics_snapshot::merge(const metrics_snapshot& other) {
  std::vector<metric_row> out;
  out.reserve(rows.size() + other.rows.size());
  auto a = rows.begin();
  auto b = other.rows.begin();
  const row_key_less less;
  while (a != rows.end() || b != other.rows.end()) {
    if (b == other.rows.end() || (a != rows.end() && less(*a, *b))) {
      out.push_back(std::move(*a++));
    } else if (a == rows.end() || less(*b, *a)) {
      out.push_back(*b++);
    } else {
      metric_row merged = std::move(*a++);
      merged.value += b->value;
      merged.level = fold_gauge(merged.fold, merged.level, b->level);
      out.push_back(std::move(merged));
      ++b;
    }
  }
  rows = std::move(out);
}

namespace {

const metric_row* find_row(const std::vector<metric_row>& rows,
                           metric_kind kind, const std::string& name,
                           const std::string& label) {
  for (const metric_row& r : rows)
    if (r.kind == kind && r.name == name && r.label == label) return &r;
  return nullptr;
}

}  // namespace

std::uint64_t metrics_snapshot::counter_value(const std::string& name,
                                              const std::string& label) const {
  const metric_row* r = find_row(rows, metric_kind::counter, name, label);
  return r ? r->value : 0;
}

std::int64_t metrics_snapshot::gauge_level(const std::string& name,
                                           const std::string& label) const {
  const metric_row* r = find_row(rows, metric_kind::gauge, name, label);
  return r ? r->level : 0;
}

std::uint64_t metrics_snapshot::digest() const {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  const auto mix_str = [&h](const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    h ^= 0xff;  // terminator so "ab","c" != "a","bc"
    h *= 1099511628211ull;
  };
  for (const metric_row& r : rows) {
    mix(static_cast<std::uint64_t>(r.kind));
    mix_str(r.name);
    mix_str(r.label);
    mix(r.value);
    mix(static_cast<std::uint64_t>(r.level));
    mix(static_cast<std::uint64_t>(r.fold));
  }
  return h;
}

std::string metrics_snapshot::to_json() const {
  std::ostringstream out;
  out << '{';
  bool any_section = false;
  for (const metric_kind kind : {metric_kind::counter, metric_kind::gauge}) {
    bool first = true;
    for (const metric_row& r : rows) {
      if (r.kind != kind) continue;
      if (first) {
        if (any_section) out << ',';
        any_section = true;
        out << (kind == metric_kind::counter ? "\"counters\":{"
                                             : "\"gauges\":{");
      } else {
        out << ',';
      }
      first = false;
      out << '"' << r.name;
      if (!r.label.empty()) out << '{' << r.label << '}';
      out << "\":";
      if (kind == metric_kind::counter)
        out << r.value;
      else
        out << r.level;
    }
    if (!first) out << '}';
  }
  out << '}';
  return out.str();
}

}  // namespace gqs
