#include "obs/timeseries.hpp"

#include <sstream>

namespace gqs {

void timeseries_sampler::add_probe(std::string_view name, probe_fn fn,
                                   gauge_fold how) {
  if (!enabled() || !fn) return;
  std::size_t idx = series_.size();
  for (std::size_t i = 0; i < series_.size(); ++i)
    if (series_[i].name == name) {
      idx = i;
      break;
    }
  if (idx == series_.size()) {
    series s;
    s.name = std::string(name);
    s.how = how;
    series_.push_back(std::move(s));
  }
  probes_.push_back(probe{std::move(fn), idx});
}

void timeseries_sampler::sample_due(sim_time now) {
  if (!enabled() || now < next_) return;
  sim_time stamp = next_;
  while (next_ <= now) {
    stamp = next_;
    next_ += period_;
  }
  if (probes_.empty()) return;
  std::vector<std::int64_t> values(series_.size(), 0);
  std::vector<bool> touched(series_.size(), false);
  for (const probe& p : probes_) {
    const std::int64_t v = p.fn();
    auto& slot = values[p.series_idx];
    if (!touched[p.series_idx]) {
      slot = v;
      touched[p.series_idx] = true;
    } else {
      slot = fold_gauge(series_[p.series_idx].how, slot, v);
    }
  }
  for (std::size_t i = 0; i < series_.size(); ++i)
    series_[i].points.push_back(point{stamp, values[i]});
}

std::string timeseries_sampler::to_json() const {
  std::ostringstream out;
  out << "{\"period_us\":" << period_ << ",\"series\":[";
  bool first_series = true;
  for (const series& s : series_) {
    if (!first_series) out << ',';
    first_series = false;
    out << "{\"name\":\"" << s.name << "\",\"agg\":\""
        << (s.how == gauge_fold::max ? "max" : "sum") << "\",\"points\":[";
    bool first_point = true;
    for (const point& p : s.points) {
      if (!first_point) out << ',';
      first_point = false;
      out << '[' << p.at << ',' << p.value << ']';
    }
    out << "]}";
  }
  out << "]}";
  return out.str();
}

}  // namespace gqs
