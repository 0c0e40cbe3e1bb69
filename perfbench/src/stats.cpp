#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "service/request.h"

namespace perfbench {

Quantile quantile(std::vector<double>& values, double pct) {
  Quantile q;
  q.pct = pct;
  q.samples = values.size();
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(values.size()));
  const std::size_t idx = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  q.value = values[idx];
  q.beyond = values.size() - idx - 1;
  return q;
}

Quantile tail_quantile(std::vector<double>& values) {
  for (const double pct : {99.0, 90.0, 50.0}) {
    Quantile q = quantile(values, pct);
    if (q.beyond >= 10) return q;
  }
  return quantile(values, 50.0);
}

std::vector<std::size_t> headline_epochs(const std::vector<double>& steal) {
  std::vector<std::size_t> order(steal.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const auto less_stolen = [&](std::size_t a, std::size_t b) {
    return steal[a] < steal[b];
  };
  std::stable_sort(order.begin(), order.end(), less_stolen);
  std::size_t keep = (steal.size() + 1) / 2;
  while (keep < order.size() && steal[order[keep]] <= kCleanSteal) ++keep;
  order.resize(keep);
  std::sort(order.begin(), order.end());
  return order;
}

std::map<std::string, std::string> reply_fields(const std::string& reply) {
  std::map<std::string, std::string> out;
  const tecfan::service::Response r = tecfan::service::parse_response(reply);
  for (const auto& [k, v] : r.fields) out[k] = v;
  return out;
}

double field_number(const std::map<std::string, std::string>& fields,
                    const std::string& key) {
  const auto it = fields.find(key);
  return it == fields.end() ? 0.0 : std::strtod(it->second.c_str(), nullptr);
}

tecfan::LatencyHistogram::Snapshot metrics_histogram(
    const std::map<std::string, std::string>& fields, const std::string& name) {
  using tecfan::LatencyHistogram;
  LatencyHistogram::Snapshot snap;
  snap.max_us = field_number(fields, name + "_max_us");
  snap.sum_us = field_number(fields, name + "_mean_us") *
                field_number(fields, name + "_count");
  const auto it = fields.find(name + "_buckets");
  if (it == fields.end()) return snap;
  const std::string& text = it->second;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string item = text.substr(pos, comma - pos);
    const std::size_t colon = item.find(':');
    if (colon != std::string::npos) {
      const double upper = std::strtod(item.c_str(), nullptr);
      const auto count = std::strtoull(item.c_str() + colon + 1, nullptr, 10);
      // Bucket bounds are printed with four significant digits; match
      // each back to its bucket index.
      std::size_t best = 0;
      double best_err = 1e300;
      for (std::size_t i = 0; i < LatencyHistogram::kBucketCount; ++i) {
        const double b = LatencyHistogram::bucket_upper_us(i);
        const double err = std::abs(b - upper) / std::max(b, 1e-9);
        if (err < best_err) {
          best_err = err;
          best = i;
        }
      }
      snap.buckets[best] += count;
      snap.count += count;
    }
    pos = comma + 1;
  }
  return snap;
}

tecfan::LatencyHistogram::Snapshot histogram_delta(
    const tecfan::LatencyHistogram::Snapshot& after,
    const tecfan::LatencyHistogram::Snapshot& before) {
  tecfan::LatencyHistogram::Snapshot d = after;
  d.count = 0;
  for (std::size_t i = 0; i < d.buckets.size(); ++i) {
    d.buckets[i] = after.buckets[i] >= before.buckets[i]
                       ? after.buckets[i] - before.buckets[i]
                       : 0;
    d.count += d.buckets[i];
  }
  d.sum_us = after.sum_us - before.sum_us;
  return d;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

void Json::key(const std::string& k) {
  if (!body_.empty()) body_ += ',';
  body_ += '"' + json_escape(k) + "\":";
}

Json& Json::num(const std::string& k, double value) {
  key(k);
  if (!std::isfinite(value)) {
    body_ += "null";
    return *this;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  body_ += buf;
  return *this;
}

Json& Json::integer(const std::string& k, std::uint64_t value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

Json& Json::str(const std::string& k, const std::string& value) {
  key(k);
  body_ += '"' + json_escape(value) + '"';
  return *this;
}

Json& Json::boolean(const std::string& k, bool value) {
  key(k);
  body_ += value ? "true" : "false";
  return *this;
}

Json& Json::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

Json& Json::quantile(const std::string& k, const Quantile& q) {
  return raw(k, Json()
                    .num("value", q.value)
                    .num("pct", q.pct)
                    .integer("samples", q.samples)
                    .integer("beyond", q.beyond)
                    .text());
}

}  // namespace perfbench
